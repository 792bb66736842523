//go:build !race

package mw_test

import (
	"runtime"
	"testing"

	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
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
