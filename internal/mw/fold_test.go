package mw_test

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestFoldOncePerGroup: on the build_scan shape — census, unstaged, unlimited
// memory, every level a scan of the server's columnar copy — no budget can
// police, so each counted node folds each attribute's histogram once per row
// group that holds its rows, not once per block. The kernel's Fold calls equal
// the (node, group, attribute) triples that hold rows, counted here from the
// data: a group is storage.RowGroupSize rows of the table in load order.
// Derivation is off, so every node is counted. A histogram never folded at a
// group change would mix two groups' dictionaries and fold fewer times; one
// folded per block would fold more.
func TestFoldOncePerGroup(t *testing.T) {
	defer mw.SetDeriveOff(mw.SetDeriveOff(true))
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 10 * storage.RowGroupSize, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b, err := dtree.NewBuilder(m, dtree.Options{MaxDepth: 8, MinRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	before := mw.FoldCalls()
	var want, nodes int64
	for b.Pending() > 0 {
		results, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.ViaSQL || res.Source != "server" {
				t.Fatalf("node %d read from %s (via SQL %v): the shape is unstaged and unlimited", res.Req.NodeID, res.Source, res.ViaSQL)
			}
			nodes++
			for lo := 0; lo < ds.N(); lo += storage.RowGroupSize {
				for _, row := range ds.Rows[lo:min(lo+storage.RowGroupSize, ds.N())] {
					if res.Req.Path.Eval(row) {
						want += int64(len(res.Req.Attrs) + 1) // the class column is counted too
						break
					}
				}
			}
		}
		if err := b.Feed(results); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if nodes < 100 {
		t.Fatalf("only %d nodes counted: too small a build to tell", nodes)
	}
	if got := mw.FoldCalls() - before; got != want {
		t.Fatalf("%d Fold calls over %d nodes, want %d: one per (node, group, attribute) holding rows", got, nodes, want)
	}
}

// TestPolicedBuildShedsPinned: a budgeted build whose passes shed tables
// mid-scan, where the budget can police, so every block folds before the
// pass polices it. It grows dtree.BuildInMemory's tree, and its sheds fall at
// the blocks they fell at when every block folded: the batches that requeued
// a request, how many each did, and what each charged for bumps — a table
// shed a block later is bumped for that block too — and the build's bumps,
// folds and clock are the figures pinned from then. A kernel that deferred
// its folds here would police stale table sizes and shed late.
func TestPolicedBuildShedsPinned(t *testing.T) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 12000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opt := dtree.Options{MaxDepth: 6, MinRows: 20}
	want, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace()
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	eng.SetTracer(trace.Proc("build", meter))
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{Memory: 20 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tree, err := dtree.Build(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !dtree.Equal(tree, want) {
		t.Fatal("tree differs from the in-memory build")
	}
	var sheds [][3]int64
	for _, rec := range mw.BatchRecords(trace) {
		if rec.NRequeued > 0 {
			sheds = append(sheds, [3]int64{int64(rec.Batch), int64(rec.NRequeued), rec.Deltas["cc_updates"]})
		}
	}
	wantSheds := [][3]int64{{3, 1, 6414}, {4, 3, 3382}, {5, 3, 1103}, {6, 1, 1526}, {7, 1, 5281},
		{8, 1, 3800}, {9, 1, 4711}, {10, 1, 4287}, {14, 3, 3634}}
	if !slices.Equal(sheds, wantSheds) {
		t.Errorf("(batch, requeued, cc_updates) of the batches that shed = %v, want %v", sheds, wantSheds)
	}
	got := [...]int64{meter.Count(sim.CtrCCUpdates), meter.Count(sim.CtrCCFolds), int64(meter.Now())}
	if wantAll := [...]int64{87223, 79780, 477360184}; got != wantAll {
		t.Errorf("cc_updates, cc_folds, virtual ns = %v, want %v", got, wantAll)
	}
}
