package dtree

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sim"
)

// BenchmarkScoreColumnar is the scoring operator's layer benchmark: one
// SCORE TABLE pass (Server.ScoreColumnar) over 100k
// census rows, seed 1, with the model cmd/bench's serve_score workload builds
// (MaxDepth 8, MinRows 50, binary splits: 393 nodes) and with its multiway
// twin. Run it with
// go test -run '^$' -bench BenchmarkScoreColumnar -benchtime 20x -benchmem ./internal/dtree
func BenchmarkScoreColumnar(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, split := range []SplitStyle{BinarySplit, MultiwaySplit} {
		tree, err := BuildInMemory(ds, Options{MaxDepth: 8, MinRows: 50, Split: split})
		if err != nil {
			b.Fatal(err)
		}
		m, err := Compile(tree, split.String())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(split.String(), func(b *testing.B) {
			b.ReportMetric(float64(len(m.Nodes)), "nodes")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srv.ScoreColumnar(m, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecide is the client's layer benchmark: one split search (decide,
// binary entropy) over a counts table of cmd/bench's build_staged tree data
// (200-leaf random tree, 25 attributes, 10 classes, 16k rows), at the root
// and at the deepest internal node of its MinRows 50 tree. Run it with
// go test -run '^$' -bench BenchmarkDecide -benchmem ./internal/dtree
func BenchmarkDecide(b *testing.B) {
	gen := datagen.TreeGenConfig{Seed: 1, Leaves: 200}.Normalize()
	gen.CasesPerLeaf = 80
	ds, _, err := datagen.GenerateTreeData(gen)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{MinRows: 50}
	tree, err := BuildInMemory(ds, opt)
	if err != nil {
		b.Fatal(err)
	}
	deep := tree.Root
	tree.Walk(func(n *Node) {
		if !n.Leaf && n.Depth > deep.Depth {
			deep = n
		}
	})
	classIdx := ds.Schema.ClassIndex()
	for _, n := range []*Node{tree.Root, deep} {
		table := cc.FromDataset(ds, append(slices.Clone(n.Attrs), classIdx), n.Path.Eval)
		b.Run(fmt.Sprintf("depth=%d", n.Depth), func(b *testing.B) {
			b.ReportMetric(float64(table.Entries()), "entries")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if decide(table, n.Attrs, n.ClassCounts, n.Rows, n.Depth, opt).leaf {
					b.Fatal("the node does not split")
				}
			}
		})
	}
}
