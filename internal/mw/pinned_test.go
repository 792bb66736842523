package mw_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestColumnarBuildChargesPinned pins what the columnar kernel charges for one
// small unstaged census build — rows transmitted, histogram bumps, folded
// cells and the virtual clock — to the figures the two-pass kernel (selectBlock,
// then Route) produced at the commit before the walks were fused. The kernel's
// speed may change; what it bills may not.
func TestColumnarBuildChargesPinned(t *testing.T) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 12000, Seed: 7})
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
	tree, err := dtree.Build(m, dtree.Options{MaxDepth: 7, MinRows: 20})
	if err != nil {
		t.Fatal(err)
	}
	meter := m.Meter()
	got := [...]int64{
		int64(tree.NumNodes),
		meter.Count(sim.CtrRowsTransmitted),
		meter.Count(sim.CtrCCUpdates),
		meter.Count(sim.CtrCCFolds),
		meter.Count(sim.CtrColBlocks),
		int64(meter.Now()),
	}
	want := [...]int64{183, 83536, 83536, 66544, 84, 273163808}
	if got != want {
		t.Fatalf("nodes, rows_transmitted, cc_updates, cc_folds, col_blocks, virtual ns = %v, want %v", got, want)
	}
}

// TestFallbackChargesPinned pins what a build whose every node falls back to
// the §2.3 SQL statement (a memory budget that admits no counts table)
// charges: the tree, the statements, the rows their GROUP BYs aggregated, the
// pages their scans read, the result rows transmitted and the virtual clock —
// the serial statement, unchanged since it became a columnar pass per arm.
func TestFallbackChargesPinned(t *testing.T) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 12000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{Memory: 480})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(m, dtree.Options{MaxDepth: 5, MinRows: 20})
	if err != nil {
		t.Fatal(err)
	}
	meter := m.Meter()
	got := [...]int64{
		int64(tree.NumNodes),
		meter.Count(sim.CtrSQLStatements),
		meter.Count(sim.CtrSQLAggRows),
		meter.Count(sim.CtrServerPages),
		meter.Count(sim.CtrRowsTransmitted),
		int64(meter.Now()),
	}
	m.Close()
	if n, split := meter.Count(sim.CtrSQLFallbacks), int64(tree.NumNodes-tree.NumLeaves); n != split {
		t.Errorf("%d fallbacks for %d split nodes: not a fallback-only build", n, split)
	}
	if want := [...]int64{63, 31, 712005, 4395, 3971, 3491176728}; got != want {
		t.Errorf("nodes, sql_statements, sql_agg_rows, server_pages_read, rows_transmitted, virtual ns = %v, want %v", got, want)
	}
}

// TestAuxBuildChargesPinned pins what a keyset build and a TID-join build of the
// same census tree charge: the tree, the row-at-a-time work — fetches by TID,
// join probes, rows transmitted — the histogram bumps and the virtual clock.
// The comments hold what the heap cursors these structures were re-scanned
// through charged at the commit before they became row-group sources (same
// tree, same fetches, probes and rows: the counting moved from a search-tree
// update per row to the block kernel's bump and fold, and the qualifying scan
// from heap pages to the columns the filter tests).
func TestAuxBuildChargesPinned(t *testing.T) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 12000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		access mw.ServerAccess
		want   [6]int64
	}{
		// heap cursors: 2093, 190708, 0, 197503, 197503, 16525005920
		{mw.AccessKeyset, [6]int64{2093, 190708, 0, 197503, 197503, 16515041144}},
		// heap cursors: 2093, 190708, 190708, 197503, 197503, 17390002920
		{mw.AccessTIDJoin, [6]int64{2093, 190708, 190708, 197503, 197503, 17380038144}},
	} {
		srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mw.New(srv, mw.Config{Access: tc.access, AuxThreshold: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := dtree.Build(m, dtree.Options{MinRows: 20})
		if err != nil {
			t.Fatal(err)
		}
		meter := m.Meter()
		got := [...]int64{
			int64(tree.NumNodes),
			meter.Count(sim.CtrTIDFetches),
			meter.Count(sim.CtrIndexProbes),
			meter.Count(sim.CtrRowsTransmitted),
			meter.Count(sim.CtrCCUpdates),
			int64(meter.Now()),
		}
		m.Close()
		if got != tc.want {
			t.Errorf("%v: nodes, tid_fetches, index_probes, rows_transmitted, cc_updates, virtual ns = %v, want %v",
				tc.access, got, tc.want)
		}
	}
}

// TestStagedBuildSchedulePinned pins, for three staged builds of the same
// random-tree table, the staging schedule — tree size, batches, files created,
// rows written to files, rows staged in memory, SQL fallbacks — to the figures
// the row-encoded stages produced at the commit before stages became column
// blocks: a stage's format may change, what gets staged and when may not. What
// a staged scan bills is pinned beside it at what the block kernel charges; the
// row path's figures are in the comments (it read the same rows — no zone map
// skips a group of this unclustered table — and counted them at 60 ns each,
// folding only the root's server blocks).
func TestStagedBuildSchedulePinned(t *testing.T) {
	ds, _, err := datagen.GenerateTreeData(datagen.TreeGenConfig{Leaves: 40, Attrs: 10, Values: 4, ValuesStdDev: 1, Classes: 4, CasesPerLeaf: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		cfg               mw.Config
		schedule, charges [6]int64
	}{
		{
			name:     "file+memory, memory = data/4",
			cfg:      mw.Config{Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 4},
			schedule: [6]int64{521, 59, 4, 21953, 2962, 0},
			// row path: 102724, 10418, 98509, 2219, 13, 843538560
			charges: [6]int64{102724, 10418, 98509, 73762, 167, 844794732},
		},
		{
			name:     "memory only",
			cfg:      mw.Config{Staging: mw.StageMemoryOnly},
			schedule: [6]int64{521, 15, 0, 0, 12600, 0},
			// row path: 0, 176400, 98509, 2219, 13, 72467860
			charges: [6]int64{0, 176400, 98509, 90342, 195, 75050432},
		},
		{
			name:     "file only, split threshold 0.9",
			cfg:      mw.Config{Staging: mw.StageFileOnly, FilePolicy: mw.FileSplitThreshold, Threshold: 0.9},
			schedule: [6]int64{521, 15, 11, 48832, 0, 0},
			// row path: 99230, 0, 98509, 2219, 13, 1043043860
			charges: [6]int64{99230, 0, 98509, 76144, 118, 1044490592},
		},
	} {
		srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			t.Fatal(err)
		}
		trace := obs.NewTrace()
		srv.Engine().SetTracer(trace.Proc("pin", srv.Meter()))
		tc.cfg.Dir = t.TempDir()
		m, err := mw.New(srv, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := dtree.Build(m, dtree.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var stagedMemRows int64
		for _, b := range mw.BatchRecords(trace) {
			stagedMemRows += b.StagedMemRows
		}
		meter := m.Meter()
		schedule := [...]int64{
			int64(tree.NumNodes),
			meter.Count(sim.CtrBatches),
			meter.Count(sim.CtrFilesCreated),
			meter.Count(sim.CtrFileRowsWritten),
			stagedMemRows,
			meter.Count(sim.CtrSQLFallbacks),
		}
		charges := [...]int64{
			meter.Count(sim.CtrFileRowsRead),
			meter.Count(sim.CtrMemRowsRead),
			meter.Count(sim.CtrCCUpdates),
			meter.Count(sim.CtrCCFolds),
			meter.Count(sim.CtrColBlocks),
			int64(meter.Now()),
		}
		m.Close()
		if schedule != tc.schedule {
			t.Errorf("%s: nodes, mw_batches, files_created, file_rows_written, staged memory rows, sql_fallbacks = %v, want %v", tc.name, schedule, tc.schedule)
		}
		if charges != tc.charges {
			t.Errorf("%s: file_rows_read, mem_rows_read, cc_updates, cc_folds, col_blocks, virtual ns = %v, want %v", tc.name, charges, tc.charges)
		}
	}
}
