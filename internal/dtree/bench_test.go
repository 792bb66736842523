package dtree

import (
	"testing"

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
