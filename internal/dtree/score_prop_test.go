package dtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/sim"
)

// randomDataset draws rows over the schema with attribute values restricted
// to [0, hi) per attribute (hi = full card for the scoring set, card-1 for
// the training set, so scoring encounters values the tree never saw).
func randomDataset(rng *rand.Rand, schema *data.Schema, n int, restrict bool) *data.Dataset {
	ds := data.NewDataset(schema)
	for i := 0; i < n; i++ {
		row := make(data.Row, schema.NumCols())
		for a, at := range schema.Attrs {
			hi := at.Card
			if restrict && hi > 2 {
				hi-- // hold the top code out of training
			}
			row[a] = data.Value(rng.Intn(hi))
		}
		row[schema.ClassIndex()] = data.Value(rng.Intn(schema.Class.Card))
		ds.Rows = append(ds.Rows, row)
	}
	return ds
}

// TestScoringProperties is the randomized spine check: across many seeded
// (tree, row-batch) draws, the in-client tree walk, the compiled CASE
// expression, and the vectorized catalog operator agree byte for byte — and
// each prediction's distribution is exactly the training distribution of the
// tree node the walk stops at, with the predicted class its majority class.
// The scoring set deliberately contains attribute values the training set
// never had, so the unseen-value fallback and the dictionary-miss path are
// exercised on every trial.
func TestScoringProperties(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			schema := data.NewSchema(2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(3))
			train := randomDataset(rng, schema, 300+rng.Intn(300), true)
			scoreSet := randomDataset(rng, schema, 500+rng.Intn(500), false)

			opt := Options{MaxDepth: 2 + rng.Intn(4)}
			if rng.Intn(2) == 1 {
				opt.Split = MultiwaySplit
			}
			tree, err := BuildInMemory(train, opt)
			if err != nil {
				t.Fatal(err)
			}

			// Path A: in-client walk over the scoring rows.
			want := make([]byte, 0, len(scoreSet.Rows)*2)
			for _, row := range scoreSet.Rows {
				want = append(want, fmt.Sprintf("%d\n", tree.Predict(row))...)
			}

			eng := engine.New(sim.NewDefaultMeter(), 0)
			if _, err := engine.NewServer(eng, "cases", scoreSet); err != nil {
				t.Fatal(err)
			}
			m, err := Compile(tree, "m")
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.RegisterModel(m); err != nil {
				t.Fatal(err)
			}

			// Path B: compiled CASE expression as SQL.
			rs, err := eng.Exec(ScoreSQL(tree, "cases"))
			if err != nil {
				t.Fatal(err)
			}
			caseGot := make([]byte, 0, len(want))
			for _, r := range rs.Rows {
				caseGot = append(caseGot, fmt.Sprintf("%d\n", r[0].I)...)
			}
			if !bytes.Equal(caseGot, want) {
				t.Fatal("CASE-expression path diverges from the in-client walk")
			}

			// Path C: the vectorized catalog operator.
			res, err := eng.ScoreTable(mustTable(t, eng, "cases"), m)
			if err != nil {
				t.Fatal(err)
			}
			vecGot := make([]byte, 0, len(want))
			for _, c := range res.Classes {
				vecGot = append(vecGot, fmt.Sprintf("%d\n", c)...)
			}
			if !bytes.Equal(vecGot, want) {
				t.Fatal("vectorized path diverges from the in-client walk")
			}

			// Distribution properties, per scored row.
			for i, row := range scoreSet.Rows {
				node := walkToLeafNode(tree, row)
				dist := res.Dist(m, i)
				if len(dist) != schema.Class.Card {
					t.Fatalf("row %d: dist has %d classes, want %d", i, len(dist), schema.Class.Card)
				}
				var sum int64
				maxc, maxv := data.Value(0), int64(-1)
				for c, v := range dist {
					if v < 0 {
						t.Fatalf("row %d: negative count %d in distribution", i, v)
					}
					sum += v
					if v > maxv {
						maxc, maxv = data.Value(c), v
					}
				}
				if sum != node.Rows {
					t.Fatalf("row %d: distribution sums to %d, node holds %d training rows", i, sum, node.Rows)
				}
				if fmt.Sprint(dist) != fmt.Sprint(node.ClassCounts) {
					t.Fatalf("row %d: dist %v != stop node's training counts %v", i, dist, node.ClassCounts)
				}
				// The predicted class is the majority class of the stop
				// node's distribution (ties broken by lowest code, the
				// builder's rule).
				if res.Classes[i] != maxc && dist[res.Classes[i]] != maxv {
					t.Fatalf("row %d: predicted class %d is not a majority class of %v", i, res.Classes[i], dist)
				}
			}
		})
	}
}
