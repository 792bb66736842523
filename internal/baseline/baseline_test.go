package baseline

import (
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

func genData(t *testing.T, seed int64) *data.Dataset {
	t.Helper()
	ds, _, err := datagen.GenerateTreeData(datagen.TreeGenConfig{
		Leaves: 10, Attrs: 6, Values: 3, ValuesStdDev: 0,
		Classes: 4, CasesPerLeaf: 60, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newServer(t *testing.T, ds *data.Dataset) *engine.Server {
	t.Helper()
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestAllStrategiesProduceTheSameTree: every baseline and the middleware
// agree with the in-memory reference.
func TestAllStrategiesProduceTheSameTree(t *testing.T) {
	ds := genData(t, 1)
	opt := dtree.Options{}
	want, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("extract-all", func(t *testing.T) {
		got, err := ExtractAll(newServer(t, ds), 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !dtree.Equal(got, want) {
			t.Error("tree differs")
		}
	})
	t.Run("extract-all-spill", func(t *testing.T) {
		got, err := ExtractAll(newServer(t, ds), 1024, opt) // forces client disk spill
		if err != nil {
			t.Fatal(err)
		}
		if !dtree.Equal(got, want) {
			t.Error("tree differs")
		}
	})
	t.Run("sql-counting", func(t *testing.T) {
		got, err := SQLCounting(newServer(t, ds), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !dtree.Equal(got, want) {
			t.Error("tree differs")
		}
	})
	t.Run("file-store", func(t *testing.T) {
		got, err := FileStore(newServer(t, ds), t.TempDir(), 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !dtree.Equal(got, want) {
			t.Error("tree differs")
		}
	})
}

func TestSQLCountingIsSlowerThanMiddleware(t *testing.T) {
	ds := genData(t, 2)
	opt := dtree.Options{}

	srvMW := newServer(t, ds)
	m, err := mw.New(srvMW, mw.Config{Staging: mw.StageNone})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := dtree.Build(m, opt); err != nil {
		t.Fatal(err)
	}
	mwTime := srvMW.Meter().Now()

	srvSQL := newServer(t, ds)
	if _, err := SQLCounting(srvSQL, opt); err != nil {
		t.Fatal(err)
	}
	sqlTime := srvSQL.Meter().Now()

	if sqlTime < 2*mwTime {
		t.Errorf("sql counting %v not >= 2x middleware %v", sqlTime, mwTime)
	}
}

func TestExtractAllSpillCharges(t *testing.T) {
	ds := genData(t, 3)
	// Fits in client memory: no file traffic.
	srv := newServer(t, ds)
	if _, err := ExtractAll(srv, 2*ds.Bytes(), dtree.Options{}); err != nil {
		t.Fatal(err)
	}
	if srv.Meter().Count(sim.CtrFileRowsRead) != 0 {
		t.Error("in-memory client paid file reads")
	}
	if srv.Meter().Count(sim.CtrMemRowsRead) == 0 {
		t.Error("in-memory client paid no memory reads")
	}

	// Spills: counting passes pay per-row disk reads.
	srv2 := newServer(t, ds)
	if _, err := ExtractAll(srv2, ds.Bytes()/2, dtree.Options{}); err != nil {
		t.Fatal(err)
	}
	if srv2.Meter().Count(sim.CtrFileRowsRead) == 0 {
		t.Error("spilled client paid no file reads")
	}
	if srv2.Meter().Count(sim.CtrFileRowsWritten) != int64(ds.N()) {
		t.Errorf("spill wrote %d rows, want %d", srv2.Meter().Count(sim.CtrFileRowsWritten), ds.N())
	}
	// And the spilled run costs more.
	if srv2.Meter().Now() <= srv.Meter().Now() {
		t.Errorf("spilled run (%v) not slower than in-memory run (%v)",
			srv2.Meter().Now(), srv.Meter().Now())
	}
}

func TestExtractAllTransmitsEverything(t *testing.T) {
	ds := genData(t, 4)
	srv := newServer(t, ds)
	if _, err := ExtractAll(srv, 0, dtree.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Meter().Count(sim.CtrRowsTransmitted); got != int64(ds.N()) {
		t.Errorf("transmitted %d rows, want %d", got, ds.N())
	}
	if got := srv.Meter().Count(sim.CtrClientRows); got != int64(ds.N()) {
		t.Errorf("materialized %d rows, want %d", got, ds.N())
	}
}

func TestFileStoreUsesFileAfterFirstScan(t *testing.T) {
	ds := genData(t, 5)
	srv := newServer(t, ds)
	if _, err := FileStore(srv, t.TempDir(), 0, dtree.Options{}); err != nil {
		t.Fatal(err)
	}
	m := srv.Meter()
	if m.Count(sim.CtrServerScans) != 1 {
		t.Errorf("file store used %d server scans, want exactly 1", m.Count(sim.CtrServerScans))
	}
	if m.Count(sim.CtrFileRowsRead) == 0 {
		t.Error("file store never read its file")
	}
}

// TestExtractAllEndsItsSpans: ExtractAll leaves every span of its server
// ended — the one server-scan its cursor opens, recording every row it
// transmitted — whether the extracted copy fits the client's memory or
// spills to its disk.
func TestExtractAllEndsItsSpans(t *testing.T) {
	ds := genData(t, 4)
	srv := newServer(t, ds)
	for _, clientMemory := range []int64{0, ds.Bytes() / 2} {
		m := sim.NewMeter(srv.Meter().Costs())
		col := obs.NewTrace()
		if _, err := ExtractAll(srv.View(m, col.Proc("client", m)), clientMemory, dtree.Options{}); err != nil {
			t.Fatal(err)
		}
		var spans []*obs.Span
		col.EachProc(func(pv obs.ProcView) { spans = append(spans, pv.Spans...) })
		scans := 0
		for _, sp := range spans {
			if sp.Deltas == nil {
				t.Errorf("memory %d: span %q never ended", clientMemory, sp.Name)
			}
			if sp.Name == "server-scan" {
				scans++
				if sp.Rows != int64(ds.N()) {
					t.Errorf("memory %d: the scan span records %d rows, want %d", clientMemory, sp.Rows, ds.N())
				}
			}
		}
		if scans != 1 {
			t.Errorf("memory %d: %d server-scan spans, want 1", clientMemory, scans)
		}
	}
}
