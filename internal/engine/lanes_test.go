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
	"repro/internal/predicate"
	"repro/internal/sim"
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

// lanesTestServer loads ds into a fresh engine with an index on the first
// column, so a core whose WHERE compares A1 takes the index plan and every
// other core the columnar one. The pool holds two pages: a pooled index plan,
// fetching in key order, keeps missing.
func lanesTestServer(t *testing.T, ds *data.Dataset) *Server {
	t.Helper()
	srv, err := NewServer(New(sim.NewDefaultMeter(), 2), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	srv.Engine().MustExec("CREATE INDEX ix ON cases (A1)")
	return srv
}

// randUnion draws one statement of 1–8 three-column cores — grouped counts,
// plain and DISTINCT projections, each under 0–2 random conjuncts (index,
// pushed-down and residual ones) — joined by UNION / UNION ALL, with an
// optional ORDER BY and LIMIT. indexed reports whether some core's WHERE lets
// the index on A1 serve it.
func randUnion(rng *rand.Rand, s *data.Schema) (sql string, cores int, indexed bool) {
	cores = 1 + rng.Intn(8)
	var b strings.Builder
	for i := 0; i < cores; i++ {
		if i > 0 {
			b.WriteString([]string{" UNION ", " UNION ALL "}[rng.Intn(2)])
		}
		c1, c2 := s.ColName(rng.Intn(4)), s.ColName(rng.Intn(4))
		var where []string
		for k := rng.Intn(3); k > 0; k-- {
			cj := randConjunct(rng, s, 3)
			where = append(where, cj.sql)
			indexed = indexed || cj.indexOK && cj.col == 0
		}
		grouped := rng.Intn(2) == 0
		switch {
		case grouped:
			fmt.Fprintf(&b, "SELECT %d AS x, %s AS y, COUNT(*) AS z FROM cases", i, c1)
		case rng.Intn(2) == 0:
			fmt.Fprintf(&b, "SELECT DISTINCT %d AS x, %s AS y, %s AS z FROM cases", i, c1, c2)
		default:
			fmt.Fprintf(&b, "SELECT %s AS x, %s AS y, %s AS z FROM cases", c1, c2, s.ColName(3))
		}
		if len(where) > 0 {
			b.WriteString(" WHERE " + strings.Join(where, " AND "))
		}
		if grouped {
			b.WriteString(" GROUP BY " + c1)
		}
	}
	if rng.Intn(2) == 0 {
		b.WriteString(" ORDER BY " + []string{"x", "y DESC", "z, x DESC"}[rng.Intn(3)])
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", rng.Intn(200))
	}
	return b.String(), cores, indexed
}

// TestUnionLanesMatchSerial: seeded random UNION statements through
// Server.Exec(sql, n) return the same ResultSet, row order included, and charge
// the same counter totals at every lane count; the clock at n > 1 is never
// above one worker's; one worker is Engine.Exec to the nanosecond; and the whole
// transcript is byte-identical across reruns and GOMAXPROCS. Every statement
// runs on a fresh engine. One counter may legitimately differ: an index plan
// on a lane fetches cold (payCold: no pool, so no page miss to pay), where the
// serial statement pays the pooled fetch's misses — server_pages_read is then
// lower on lanes, and is compared only for statements without an index core.
func TestUnionLanesMatchSerial(t *testing.T) {
	ds := lanesTestData()
	run := func() string {
		rng := rand.New(rand.NewSource(29))
		var log strings.Builder
		laned, indexedLaned, fewerPages := 0, 0, 0
		for trial := 0; trial < 24; trial++ {
			sql, cores, indexed := randUnion(rng, ds.Schema)
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
				cmpCtr := wantCtr
				if onLanes && indexed {
					indexedLaned++
					if ctr[sim.CtrServerPages] > wantCtr[sim.CtrServerPages] {
						t.Fatalf("n=%d: %s: %d pages on lanes, %d serial", n, sql, ctr[sim.CtrServerPages], wantCtr[sim.CtrServerPages])
					}
					if ctr[sim.CtrServerPages] < wantCtr[sim.CtrServerPages] {
						fewerPages++
					}
					cmpCtr[sim.CtrServerPages], ctr[sim.CtrServerPages] = 0, 0
				}
				if ctr != cmpCtr {
					t.Fatalf("n=%d: %s:\ncounters %v\nwant     %v", n, sql, ctr, cmpCtr)
				}
				if ns > wantNS || !onLanes && ns != wantNS {
					t.Fatalf("n=%d: %s: %v, serial %v", n, sql, ns, wantNS)
				}
			}
		}
		if fewerPages == 0 || indexedLaned == laned {
			t.Fatalf("%d statements ran on lanes, %d of them with an index core, %d with fewer pages than serial: the mix is not covered", laned, indexedLaned, fewerPages)
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

// TestHeapTailLanes: the arms of a UNION on four lanes, each taking the index
// plan over a table whose last rows were Inserted, fetch those rows from the
// open tail group concurrently. Run under -race: the tail's lazy encoding must
// be serialized, and the result must be the serial statement's.
func TestHeapTailLanes(t *testing.T) {
	var sql strings.Builder
	for k := 0; k < 4; k++ {
		if k > 0 {
			sql.WriteString(" UNION ALL ")
		}
		fmt.Fprintf(&sql, "SELECT %d AS x, A2, A3 FROM cases WHERE A1 = %d", k, k)
	}
	var want *ResultSet
	for _, n := range []int{1, 4} {
		srv := lanesTestServer(t, lanesTestData())
		e := srv.Engine()
		tbl, _ := e.Table("cases")
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 300; i++ {
			row := data.Row{data.Value(i % 4), data.Value(rng.Intn(4)), data.Value(4 + i), data.Value(rng.Intn(2))}
			if _, err := e.Insert(tbl, row); err != nil {
				t.Fatal(err)
			}
		}
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
	}
	tail := 0
	for _, row := range want.Rows {
		if row[2].I >= 4 {
			tail++
		}
	}
	if tail != 300 {
		t.Fatalf("the statement read %d of the 300 Inserted rows", tail)
	}
}
