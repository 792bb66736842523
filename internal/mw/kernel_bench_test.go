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
// passes through: the live requests are those a reference build (the
// cmd/bench build_scan workload: 100k census rows, MaxDepth 8, MinRows 50)
// issued at depth 0, 4 and 7, which is 1, 16 and 80 nodes. A row-visit is one
// table row going through the kernel once, so ns/row-visit is the per-row cost
// of a level and grows with the number of live nodes.
func BenchmarkColumnarKernel(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}

	// Record the reference build's requests per depth.
	levels := map[int][]*mw.Request{}
	ref, err := mw.New(srv, mw.Config{})
	if err != nil {
		b.Fatal(err)
	}
	bld, err := dtree.NewBuilder(ref, dtree.Options{MaxDepth: 8, MinRows: 50})
	if err != nil {
		b.Fatal(err)
	}
	for bld.Pending() > 0 {
		results, err := ref.Step()
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			req := *res.Req
			req.ParentID = -1 // replayed without its ancestors
			levels[len(req.Path)] = append(levels[len(req.Path)], &req)
		}
		if err := bld.Feed(results); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := bld.Finish(); err != nil {
		b.Fatal(err)
	}
	ref.Close()

	for _, depth := range []int{0, 4, 7} {
		reqs := levels[depth]
		b.Run(fmt.Sprintf("nodes=%d", len(reqs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := mw.New(srv, mw.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Enqueue(reqs...); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				results, err := m.Step()
				b.StopTimer()
				if err != nil || len(results) != len(reqs) {
					b.Fatalf("Step returned %d of %d results, err %v", len(results), len(reqs), err)
				}
				m.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.N()), "ns/row-visit")
		})
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
