package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// lanesTestData is a 1.5-group table of three attributes over {0..3} and a
// binary class: every whole-table scan reads one sealed group and the lazily
// encoded tail.
func lanesTestData() *data.Dataset {
	rng := rand.New(rand.NewSource(11))
	ds := data.NewDataset(data.NewSchema(3, 4, 2))
	for i := 0; i < 6144; i++ {
		ds.Append(data.Row{data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(2))})
	}
	return ds
}

// lanesTestServer loads ds into a fresh engine whose pool holds two pages: a
// pooled heap walk of more than two pages keeps missing.
func lanesTestServer(t *testing.T, ds *data.Dataset) *Server {
	t.Helper()
	srv, err := NewServer(New(sim.NewDefaultMeter(), 2), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// randUnion draws one statement of 1–8 three-column cores — grouped counts on
// one key (code space unless a conjunct is residual), grouped counts on three
// keys (always the evaluator's hash GROUP BY) and plain projections, each under
// 0–2 random conjuncts (pushed-down and residual ones) — joined by UNION ALL,
// with an optional LIMIT.
func randUnion(rng *rand.Rand, s *data.Schema) (sql string, cores int) {
	cores = 1 + rng.Intn(8)
	var b strings.Builder
	for i := 0; i < cores; i++ {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		c1, c2 := s.ColName(rng.Intn(4)), s.ColName(rng.Intn(4))
		var where []string
		for k := rng.Intn(3); k > 0; k-- {
			where = append(where, randConjunct(rng, s, 3).sql)
		}
		var groupBy string
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "SELECT %d AS x, %s AS y, COUNT(*) AS z FROM cases", i, c1)
			groupBy = c1
		case 1:
			fmt.Fprintf(&b, "SELECT %s AS x, %s AS y, COUNT(*) AS z FROM cases", c1, c2)
			groupBy = fmt.Sprintf("%s, %s, %s", c1, c2, s.ColName(rng.Intn(4)))
		default:
			fmt.Fprintf(&b, "SELECT %s AS x, %s AS y, %s AS z FROM cases", c1, c2, s.ColName(3))
		}
		if len(where) > 0 {
			b.WriteString(" WHERE " + strings.Join(where, " AND "))
		}
		if groupBy != "" {
			b.WriteString(" GROUP BY " + groupBy)
		}
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", rng.Intn(200))
	}
	return b.String(), cores
}

// TestUnionLanesMatchSerial: seeded random UNION statements through
// Server.Exec(sql, n) return the same ResultSet, row order included, and charge
// the same counter totals at every lane count; the clock at n > 1 is never
// above one worker's; one worker is Engine.Exec to the nanosecond; and the whole
// transcript is byte-identical across reruns and GOMAXPROCS. Every statement
// runs on a fresh engine.
func TestUnionLanesMatchSerial(t *testing.T) {
	ds := lanesTestData()
	run := func() string {
		rng := rand.New(rand.NewSource(29))
		var log strings.Builder
		laned := 0
		for trial := 0; trial < 24; trial++ {
			sql, cores := randUnion(rng, ds.Schema)
			ref := lanesTestServer(t, ds).Engine()
			base, t0 := ref.Meter().CounterVec(), ref.Meter().Now()
			want, err := ref.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			wantCtr, wantNS := ref.Meter().CounterVec().Delta(base), ref.Meter().Now()-t0
			fmt.Fprintf(&log, "%s\n%v\n%v %v\n", sql, want.Rows, wantCtr, wantNS)

			for _, n := range []int{1, 2, 4, 8} {
				srv := lanesTestServer(t, ds)
				base, t0 := srv.Meter().CounterVec(), srv.Meter().Now()
				hits, misses := srv.eng.bp.Stats()
				got, err := srv.Exec(sql, n)
				if err != nil {
					t.Fatalf("n=%d: %s: %v", n, sql, err)
				}
				ctr, ns := srv.Meter().CounterVec().Delta(base), srv.Meter().Now()-t0
				fmt.Fprintf(&log, "n=%d %v %v\n", n, ctr, ns)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d: %s:\n%d rows %v\nwant %d rows %v", n, sql, len(got.Rows), head(got.Rows), len(want.Rows), head(want.Rows))
				}
				onLanes := n > 1 && cores > 1
				if onLanes {
					laned++
					if h, m := srv.eng.bp.Stats(); h != hits || m != misses {
						t.Fatalf("n=%d: %s: lanes touched the buffer pool (%d hits, %d misses)", n, sql, h-hits, m-misses)
					}
				}
				if ctr != wantCtr {
					t.Fatalf("n=%d: %s:\ncounters %v\nwant     %v", n, sql, ctr, wantCtr)
				}
				if ns > wantNS || !onLanes && ns != wantNS {
					t.Fatalf("n=%d: %s: %v, serial %v", n, sql, ns, wantNS)
				}
			}
		}
		if laned == 0 {
			t.Fatal("no statement ran on lanes: the mix is not covered")
		}
		return log.String()
	}
	var logs [2]string
	for i, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		logs[i] = run()
		runtime.GOMAXPROCS(old)
	}
	if logs[0] != logs[1] {
		t.Fatal("the transcript at GOMAXPROCS=8 differs from the one at GOMAXPROCS=1")
	}
}

// TestLaneViewCachesNoModel: a model whose cache entry is gone is rebuilt from
// its catalog table by every CLASSIFY core that needs it, but lanes leave the
// shared cache as they found it — the parent's next statement fills it.
func TestLaneViewCachesNoModel(t *testing.T) {
	srv := lanesTestServer(t, lanesTestData())
	e := srv.Engine()
	if err := e.RegisterModel(stumpModel("m", 3)); err != nil {
		t.Fatal(err)
	}
	const core = "SELECT CLASSIFY(m, A1, A2, A3) AS c, COUNT(*) AS n FROM cases GROUP BY CLASSIFY(m, A1, A2, A3)"
	want := e.MustExec(core + " UNION ALL " + core)
	delete(e.models, "m")
	got, err := srv.Exec(core+" UNION ALL "+core, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lanes returned %v, want %v", got.Rows, want.Rows)
	}
	if _, cached := e.models["m"]; cached {
		t.Error("a lane wrote the shared model cache")
	}
	if _, err := srv.Exec(core, 2); err != nil {
		t.Fatal(err)
	}
	if _, cached := e.models["m"]; !cached {
		t.Error("a single-core statement runs on the parent and should have cached the model")
	}
}

// TestColStoreTailConcurrentScans: concurrent whole-copy scans — what the arms
// of one statement on lanes are — all encode the open tail group on first
// touch. Run under -race: the tail's lazy sealing must be serialized, and every
// scan must select the same rows.
func TestColStoreTailConcurrentScans(t *testing.T) {
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", lanesTestData())
	if err != nil {
		t.Fatal(err)
	}
	if srv.NumColGroups() != 2 {
		t.Fatalf("table has %d row groups, want a sealed one and a tail", srv.NumColGroups())
	}
	f := predicate.Or(predicate.Conj{{Attr: 1, Op: predicate.Eq, Val: 2}})
	const scans = 8
	sels := make([][]int32, scans)
	var wg sync.WaitGroup
	for i := 0; i < scans; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane := sim.NewMeter(srv.Meter().Costs())
			srv.ScanColumnarRange(f, nil, 0, srv.NumColGroups(), lane, func(blk *ColBlock) bool {
				for _, r := range blk.Sel {
					sels[i] = append(sels[i], int32(blk.GroupIndex)<<16|r)
				}
				return true
			})
		}(i)
	}
	wg.Wait()
	if len(sels[0]) == 0 {
		t.Fatal("the scan selected nothing")
	}
	for i := 1; i < scans; i++ {
		if !reflect.DeepEqual(sels[i], sels[0]) {
			t.Errorf("scan %d selected %d rows, scan 0 %d", i, len(sels[i]), len(sels[0]))
		}
	}
}

// TestCatalogTailLanes: the arms of a UNION on four lanes, each a CLASSIFY
// core whose model is in no cache, rebuild the model from its catalog table —
// Inserted row by row, so every node row sits in the open tail group — by
// walking the catalog's heap concurrently. Run under -race: the tail's lazy
// encoding must be serialized. The result must be the serial statement's; each
// lane pays, on its own meter and cold, the catalog's pages for both of the
// rebuild's walks plus its own columnar scan of the data table; the shared
// pool is left as it was.
func TestCatalogTailLanes(t *testing.T) {
	const lanes = 4
	m := stumpModel("m", 3)
	var sql strings.Builder
	for k := 0; k < lanes; k++ {
		if k > 0 {
			sql.WriteString(" UNION ALL ")
		}
		fmt.Fprintf(&sql, "SELECT %d AS x, A2, CLASSIFY(m, A1, A2, A3) AS c FROM cases WHERE A1 = %d", k, k)
	}
	var want *ResultSet
	for _, n := range []int{1, lanes} {
		srv := lanesTestServer(t, lanesTestData())
		e := srv.Engine()
		cat, err := e.CreateTable(ModelCatalogTable(m.Name), catalogCols(m.Classes))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range m.catalogRows() {
			if err := e.Insert(cat, row); err != nil {
				t.Fatal(err)
			}
		}
		if _, cached := e.models[m.Name]; cached || cat.colstore.NumGroups() != 1 || cat.NumRows() >= storage.RowGroupSize {
			t.Fatalf("the catalog must be one open tail group and the model uncached")
		}
		tr := obs.NewTrace()
		e.SetTracer(tr.Proc("engine", e.Meter()))
		hits, misses := e.bp.Stats()
		got, err := srv.Exec(sql.String(), n)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d lanes returned %d rows, serial %d", n, len(got.Rows), len(want.Rows))
		}
		if h, mi := e.bp.Stats(); h != hits || mi != misses {
			t.Errorf("lanes touched the shared pool: %d hits, %d misses", h-hits, mi-misses)
		}
		tbl, _ := e.Table("cases")
		dataPages := int64(0)
		for gi := 0; gi < tbl.colstore.NumGroups(); gi++ {
			dataPages += tbl.colstore.Group(gi).Pages([]int{0, 1, 2})
		}
		wantPages := 2*int64(cat.NumPages()) + dataPages
		seen := 0
		tr.EachProc(func(pv obs.ProcView) {
			for _, sp := range pv.Spans {
				if sp.Cat != obs.CatLane {
					continue
				}
				seen++
				if got := sp.Deltas[sim.CtrServerPages]; got != wantPages {
					t.Errorf("lane %d paid %d pages, want %d: the catalog's %d twice and %d of the data table",
						sp.Part, got, wantPages, cat.NumPages(), dataPages)
				}
			}
		})
		if seen != lanes {
			t.Errorf("%d lane spans, want %d", seen, lanes)
		}
	}
	if len(want.Rows) == 0 {
		t.Fatal("the statement selected no row")
	}
}
