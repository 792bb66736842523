package mw_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
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
