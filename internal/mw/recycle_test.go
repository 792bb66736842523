package mw_test

import (
	"context"
	"testing"

	"repro/internal/cc"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRecyclingInvisibleToBuilds: the middleware counts new nodes into the
// tables of closed ones and seals stages into the code vectors of freed ones;
// none of that may show. Over BenchmarkStagedBuild's shape — as benchmarked,
// under a budget tight enough to shed requests mid-scan, and in a cohort of
// sessions sharing their server scans — every tree equals
// dtree.BuildInMemory's, and no two open nodes ever hold the same table.
func TestRecyclingInvisibleToBuilds(t *testing.T) {
	ds, cfg, opt := stagedShape(t)
	want, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	tight := cfg
	tight.Memory = ds.Bytes() / 64
	for _, tc := range []struct {
		name string
		cfg  mw.Config
	}{{"staged", cfg}, {"sheds", tight}} {
		t.Run(tc.name, func(t *testing.T) {
			trace := obs.NewTrace()
			meter := sim.NewDefaultMeter()
			eng := engine.New(meter, 0)
			eng.SetTracer(trace.Proc("build", meter))
			srv, err := engine.NewServer(eng, "cases", ds)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mw.New(srv, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			b, err := dtree.NewBuilder(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			for b.Pending() > 0 {
				results, err := m.Step()
				if err != nil {
					t.Fatal(err)
				}
				checkOpenTables(t, m, results)
				if err := b.Feed(results); err != nil {
					t.Fatal(err)
				}
			}
			finishAndCompare(t, b, want)
			requeued := 0
			for _, rec := range mw.BatchRecords(trace) {
				requeued += rec.NRequeued
			}
			if tc.name == "sheds" && requeued == 0 {
				t.Fatal("no request was shed mid-scan: the budget no longer forces sheds")
			}
		})
	}
	t.Run("cohort", func(t *testing.T) {
		srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			t.Fatal(err)
		}
		session := cfg
		session.Staging = mw.StageNone // every batch a server scan, so every one shared
		var ms []*mw.Middleware
		var bs []*dtree.Builder
		for s := 1; s <= 3; s++ {
			session.Session = s
			m, err := mw.New(srv, session)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			b, err := dtree.NewBuilder(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			ms, bs = append(ms, m), append(bs, b)
		}
		feed := func(i int, results []*mw.Result) {
			checkOpenTables(t, ms[i], results)
			if err := bs[i].Feed(results); err != nil {
				t.Fatal(err)
			}
		}
		shared := 0
		for pending := true; pending; {
			pending = false
			var sbs []*mw.SharedBatch
			var who []int
			var cons []*engine.ScanConsumer
			for i, m := range ms {
				if bs[i].Pending() == 0 {
					continue
				}
				pending = true
				sb, results, err := m.BeginSharedBatch(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if sb == nil {
					feed(i, results)
					continue
				}
				sbs, who, cons = append(sbs, sb), append(who, i), append(cons, sb.Consumer())
			}
			if len(sbs) == 0 {
				continue
			}
			shared += len(sbs)
			if err := engine.ScanGroups(context.Background(), srv.ColGroups(nil), cons, 0, srv.NumColGroups(), sim.NewDefaultMeter()); err != nil {
				t.Fatal(err)
			}
			for j, sb := range sbs {
				results, err := sb.Finish(0)
				if err != nil {
					t.Fatal(err)
				}
				feed(who[j], results)
			}
		}
		if shared < 3*len(ms) {
			t.Fatalf("%d batches ran in shared scans: the cohort no longer shares", shared)
		}
		for _, b := range bs {
			finishAndCompare(t, b, want)
		}
	})
}

// checkOpenTables fails when a table a Step handed out is not its node's open
// table, or when two open nodes hold the same table.
func checkOpenTables(t *testing.T, m *mw.Middleware, results []*mw.Result) {
	t.Helper()
	open := mw.OpenTables(m)
	for _, r := range results {
		if open[r.Req.NodeID] != r.CC {
			t.Fatalf("node %d: the result's table is not the open node's", r.Req.NodeID)
		}
	}
	holder := make(map[*cc.Table]int, len(open))
	for id, tb := range open {
		if other, dup := holder[tb]; dup {
			t.Fatalf("open nodes %d and %d hold the same counts table", other, id)
		}
		holder[tb] = id
	}
}

// finishAndCompare finishes a build and holds its tree against want.
func finishAndCompare(t *testing.T, b *dtree.Builder, want *dtree.Tree) {
	t.Helper()
	got, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !dtree.Equal(got, want) {
		t.Fatalf("tree differs from the in-memory build: %d nodes, want %d", got.NumNodes, want.NumNodes)
	}
}
