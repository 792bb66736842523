//go:build !race

package mw_test

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestStagedBuildAllocCeiling: a staged build allocates little more than the
// tree it grows, because the middleware recycles counts tables, stage code
// vectors and scan scratch. Over BenchmarkStagedBuild's shape, after one
// warm-up, three builds may allocate at most 5 MB each (Go 1.24, amd64: about
// 3.3 MB; a build that allocated a table per node and vectors per group took
// 13 MB). The race detector allocates on its own account, hence the build tag.
func TestStagedBuildAllocCeiling(t *testing.T) {
	const ceiling, builds = 5 << 20, 3
	ds, cfg, opt := stagedShape(t)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	build := func() {
		m, err := mw.New(srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if _, err := dtree.Build(m, opt); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range builds {
		build()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("%.2f MB per build", float64(per)/(1<<20))
	if per > ceiling {
		t.Errorf("a staged build allocates %.2f MB, ceiling %.2f MB", float64(per)/(1<<20), float64(ceiling)/(1<<20))
	}
}

// TestScanBuildAllocCeiling: running lanes as segments costs no allocation,
// because the extra shards' counts tables and the segments' scan scratch come
// from the process-wide pool, which the warm-up build fills. Over 8 row groups
// of census rows (32,768: the fewest a lane splits at), unstaged, MaxDepth 8,
// at GOMAXPROCS 2, a build may allocate at most what it did with one goroutine
// per lane and no pool (Go 1.24, amd64: 552,077 bytes).
func TestScanBuildAllocCeiling(t *testing.T) {
	const ceiling, builds = 552_077, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 8 * storage.RowGroupSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	build := func() {
		m, err := mw.New(srv, mw.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if _, err := dtree.Build(m, dtree.Options{MaxDepth: 8, MinRows: 50}); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range builds {
		build()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("%d bytes per build", per)
	if per > ceiling {
		t.Errorf("a scan build allocates %d bytes, ceiling %d", per, ceiling)
	}
}
