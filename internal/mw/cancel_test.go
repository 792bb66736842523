package mw_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// TestCancelledScanLeavesPoolClean: once a build's middleware has closed and
// handed its scan scratch to the process pool, a block scan of the same table
// cancelled mid-table and a §4.1.1 counts statement on the cancelled context
// both return context.Canceled, the pool holds nothing of any of them, and a
// fresh build over the same data still grows the reference tree.
func TestCancelledScanLeavesPoolClean(t *testing.T) {
	ds, opt := segmentsShape(t)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	want := refBuild(ds, opt)
	build := func() {
		t.Helper()
		m, err := mw.New(srv, mw.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := dtree.Build(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sameNode("root", tree.Root, want.Root); err != nil {
			t.Fatal(err)
		}
	}
	build()

	ctx, cancel := context.WithCancel(context.Background())
	blocks := 0
	err = srv.ScanColumnarRangeContext(ctx, predicate.MatchAll(), nil, 0, srv.NumColGroups(), nil, func(*engine.ColBlock) bool {
		if blocks++; blocks == 2 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) || blocks != 2 {
		t.Fatalf("scan cancelled after block 2: %d blocks, error %v; want 2 and context.Canceled", blocks, err)
	}
	counts := mw.CountsSQL(ds.Schema, "cases", nil, []int{0, 1, 2})
	if _, err := srv.Engine().ExecContext(ctx, counts); !errors.Is(err, context.Canceled) {
		t.Fatalf("counts statement on a cancelled context: %v, want context.Canceled", err)
	}
	if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
		t.Errorf("the pool holds %d references after the cancelled scans: %v", len(leaks), leaks)
	}
	build()
}
