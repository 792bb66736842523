package mw_test

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
)

// BenchmarkColumnarKernel times one unstaged server Step of the columnar
// kernel — scan, trie walk, bucketed counting — at the three widths a build
// passes through: the Step of depth 0, 4 and 7 of the cmd/bench build_scan
// workload's build (100k census rows, MaxDepth 8, MinRows 50), which is 1, 16
// and 80 nodes. Each iteration runs that build's earlier levels untimed, so the
// timed Step walks rows tagged by the levels above it, as in a real build. A
// row-visit is one table row going through the kernel once, so ns/row-visit is
// the per-row cost of a level and grows with the number of live nodes.
func BenchmarkColumnarKernel(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}
	opt := dtree.Options{MaxDepth: 8, MinRows: 50}

	// The build's levels: one Step each, of the nodes at that depth.
	var widths []int
	kernelBuild(b, srv, opt, -1, func(_ int, results []*mw.Result) { widths = append(widths, len(results)) })

	for _, depth := range []int{0, 4, 7} {
		b.Run(fmt.Sprintf("nodes=%d", widths[depth]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				kernelBuild(b, srv, opt, depth, func(d int, results []*mw.Result) {
					if d == depth && (len(results) != widths[depth] || len(results[0].Req.Path) != depth) {
						b.Fatalf("the timed Step served %d nodes at depth %d, want %d at %d", len(results), len(results[0].Req.Path), widths[depth], depth)
					}
				})
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.N()), "ns/row-visit")
		})
	}
}

// kernelBuild builds a tree over srv one Step per level, handing each depth's
// results to level, and stops after the Step of depth stop (never, when stop is
// negative). Only that Step runs with the benchmark timer on, which the caller
// has stopped.
func kernelBuild(b *testing.B, srv *engine.Server, opt dtree.Options, stop int, level func(depth int, results []*mw.Result)) {
	m, err := mw.New(srv, mw.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	bld, err := dtree.NewBuilder(m, opt)
	if err != nil {
		b.Fatal(err)
	}
	for depth := 0; bld.Pending() > 0; depth++ {
		if depth == stop {
			b.StartTimer()
		}
		results, err := m.Step()
		if depth == stop {
			b.StopTimer()
		}
		if err != nil {
			b.Fatal(err)
		}
		level(depth, results)
		if depth == stop {
			return
		}
		if err := bld.Feed(results); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := bld.Finish(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScanBuild times complete builds of the cmd/bench build_scan shape —
// 100k census rows, unstaged, unlimited memory, MaxDepth 8, MinRows 50 — where
// every level re-scans the columnar copy. Run with -cpu 1,2: with more than one
// core a lane's scan runs as segments, so the second line shows the speed-up
// and the allocations the extra shards cost (none, once the pool is warm).
func BenchmarkScanBuild(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := mw.New(srv, mw.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dtree.Build(m, dtree.Options{MaxDepth: 8, MinRows: 50}); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// BenchmarkStagedBuild times complete builds under the paper's headline set-up
// — file+memory staging, memory a quarter of the data — over the table shape of
// the cmd/bench build_staged workload (200-leaf random tree, 16k rows,
// MinRows 50): nearly every batch reads a staged file or staged memory, so this
// is the block kernel over stages plus the staging tees.
func BenchmarkStagedBuild(b *testing.B) {
	ds, cfg, opt := stagedShape(b)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := mw.New(srv, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dtree.Build(m, opt); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// BenchmarkMixedBuild times complete builds of the BUILD TREE in the cmd/bench
// serve_mixed workload, in process: 50k census rows, file+memory staging with
// no memory limit (cmd/served's default), MaxDepth 8, MinRows 50. Level 1 tees
// the root's rows into a file and level 2 the file into memory stages, which
// every later level re-scans, so this is the block kernel walking staged rows
// by their tags.
func BenchmarkMixedBuild(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 50000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mw.Config{Staging: mw.StageFileAndMemory, Dir: b.TempDir()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := mw.New(srv, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dtree.Build(m, dtree.Options{MaxDepth: 8, MinRows: 50}); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// stagedShape returns BenchmarkStagedBuild's table, middleware configuration
// (staging under a temporary directory of tb) and tree options.
func stagedShape(tb testing.TB) (*data.Dataset, mw.Config, dtree.Options) {
	gen := datagen.TreeGenConfig{Seed: 1, Leaves: 200}.Normalize()
	gen.CasesPerLeaf = 80
	ds, _, err := datagen.GenerateTreeData(gen)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := mw.Config{Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 4, Dir: tb.TempDir()}
	return ds, cfg, dtree.Options{MinRows: 50}
}
