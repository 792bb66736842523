package dtree

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// driveScoreObs runs one fully-observed vectorized scoring pass and returns
// its NDJSON trace, Chrome trace and -explain text profile.
func driveScoreObs(t *testing.T) (nd, chrome, explain []byte) {
	t.Helper()
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildInMemory(ds, Options{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewTrace()
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	eng.SetTracer(col.Proc("score", meter))
	if _, err := engine.NewServer(eng, "cases", ds); err != nil {
		t.Fatal(err)
	}
	m, err := Compile(tree, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterModel(m); err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.Table("cases")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ScoreTable(tbl, m); err != nil {
		t.Fatal(err)
	}
	var nb, cb, eb bytes.Buffer
	if err := col.Write(&nb, "ndjson"); err != nil {
		t.Fatal(err)
	}
	if err := col.Write(&cb, "chrome"); err != nil {
		t.Fatal(err)
	}
	if err := profile.Compute(col).WriteText(&eb); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), cb.Bytes(), eb.Bytes()
}

// TestScoreObsByteDeterminism extends the repo's observability determinism
// contract to the scoring operator: the NDJSON trace, the Chrome trace and
// the -explain profile of a scoring pass are byte-for-byte identical across
// reruns and across GOMAXPROCS settings.
func TestScoreObsByteDeterminism(t *testing.T) {
	// Every scan is one pass, so the single-worker case is the one case.
	t.Run("workers=1", func(t *testing.T) {
		refND, refChrome, refExplain := driveScoreObs(t)
		if len(refND) == 0 {
			t.Fatal("empty NDJSON trace")
		}
		if !bytes.Contains(refND, []byte(`"score"`)) {
			t.Fatal("scoring pass produced no score-category span")
		}
		run := 0
		for _, procs := range []int{1, 8} {
			old := runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 2; rep++ {
				run++
				nd, chrome, explain := driveScoreObs(t)
				if !bytes.Equal(nd, refND) {
					t.Errorf("run %d (GOMAXPROCS=%d): ndjson trace differs", run, procs)
				}
				if !bytes.Equal(chrome, refChrome) {
					t.Errorf("run %d (GOMAXPROCS=%d): chrome trace differs", run, procs)
				}
				if !bytes.Equal(explain, refExplain) {
					t.Errorf("run %d (GOMAXPROCS=%d): explain profile differs", run, procs)
				}
			}
			runtime.GOMAXPROCS(old)
			if t.Failed() {
				break
			}
		}
	})
}
