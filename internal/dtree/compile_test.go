package dtree

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/sqlparser"
)

// compileFixture builds a small census tree for compile tests.
func compileFixture(t *testing.T) (*data.Dataset, *Tree) {
	t.Helper()
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildInMemory(ds, Options{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds, tree
}

// TestCompileModel pins the tree → catalog-model translation: the flat model
// validates, preserves the node population, and predicts exactly like the
// tree it came from on every training row.
func TestCompileModel(t *testing.T) {
	ds, tree := compileFixture(t)
	m, err := Compile(tree, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("compiled model invalid: %v", err)
	}
	if len(m.Nodes) != tree.NumNodes {
		t.Fatalf("model has %d nodes, tree has %d", len(m.Nodes), tree.NumNodes)
	}
	if m.Cols != ds.Schema.NumAttrs() {
		t.Fatalf("model Cols = %d, want %d", m.Cols, ds.Schema.NumAttrs())
	}
	if m.Classes != ds.Schema.Class.Card {
		t.Fatalf("model Classes = %d, want %d", m.Classes, ds.Schema.Class.Card)
	}
	for i, row := range ds.Rows {
		if got, want := m.Predict(row), tree.Predict(row); got != want {
			t.Fatalf("row %d: model predicts %d, tree predicts %d", i, got, want)
		}
	}
}

// TestCompileRejectsNil pins the error paths.
func TestCompileRejectsNil(t *testing.T) {
	if _, err := Compile(nil, "m"); err == nil {
		t.Fatal("Compile(nil) accepted")
	}
	if _, err := Compile(&Tree{}, "m"); err == nil {
		t.Fatal("Compile of a rootless tree accepted")
	}
}

// TestCaseSQLParses pins that the emitted CASE expression is legal SQL for
// the repo's own parser and round-trips through its String rendering.
func TestCaseSQLParses(t *testing.T) {
	_, tree := compileFixture(t)
	sql := ScoreSQL(tree, "cases")
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("generated scoring SQL does not parse: %v\n%s", err, sql)
	}
	printed := st.String()
	st2, err := sqlparser.Parse(printed)
	if err != nil {
		t.Fatalf("rendering of generated SQL does not re-parse: %v", err)
	}
	if st2.String() != printed {
		t.Fatal("generated scoring SQL is not a String round-trip fixed point")
	}
}

// TestModelCatalogRoundTrip pins that a registered model survives as data: a
// model reconstructed from its catalog table alone predicts identically and
// carries the same shape.
func TestModelCatalogRoundTrip(t *testing.T) {
	ds, tree := compileFixture(t)
	m, err := Compile(tree, "rt")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sim.NewDefaultMeter(), 0)
	if err := eng.RegisterModel(m); err != nil {
		t.Fatal(err)
	}
	m2, err := eng.ModelFromCatalog("rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Nodes) != len(m.Nodes) || m2.Cols != m.Cols || m2.Classes != m.Classes {
		t.Fatalf("round-trip shape (%d nodes, %d cols, %d classes) != original (%d, %d, %d)",
			len(m2.Nodes), m2.Cols, m2.Classes, len(m.Nodes), m.Cols, m.Classes)
	}
	for i := range m.Nodes {
		a, b := m.Nodes[i], m2.Nodes[i]
		if a.Leaf != b.Leaf || a.Attr != b.Attr || a.Val != b.Val || a.Multiway != b.Multiway || a.Class != b.Class {
			t.Fatalf("node %d differs after catalog round-trip: %+v vs %+v", i, a, b)
		}
		if fmt.Sprint(a.Counts) != fmt.Sprint(b.Counts) || fmt.Sprint(a.Kids) != fmt.Sprint(b.Kids) || fmt.Sprint(a.Vals) != fmt.Sprint(b.Vals) {
			t.Fatalf("node %d payload differs after catalog round-trip", i)
		}
	}
	for i, row := range ds.Rows {
		if got, want := m2.Predict(row), tree.Predict(row); got != want {
			t.Fatalf("row %d: catalog model predicts %d, tree predicts %d", i, got, want)
		}
	}
}

// predictionBytes renders a prediction vector in a canonical byte form, so
// equivalence checks compare byte-identical artifacts rather than values.
func predictionBytes(classes []data.Value) []byte {
	var b bytes.Buffer
	for _, c := range classes {
		fmt.Fprintf(&b, "%d\n", c)
	}
	return b.Bytes()
}

// equivDataset draws one dataset per workload generator.
func equivDataset(t *testing.T, gen string, rows int, seed int64) *data.Dataset {
	t.Helper()
	var (
		ds  *data.Dataset
		err error
	)
	switch gen {
	case "tree":
		cfg := datagen.TreeGenConfig{Seed: seed}.Normalize()
		cfg.CasesPerLeaf = rows / cfg.Leaves
		if cfg.CasesPerLeaf < 1 {
			cfg.CasesPerLeaf = 1
		}
		ds, _, err = datagen.GenerateTreeData(cfg)
	case "gaussians":
		cfg := datagen.GaussianConfig{Seed: seed}.Normalize()
		cfg.PerClass = rows / cfg.Components
		if cfg.PerClass < 1 {
			cfg.PerClass = 1
		}
		ds, err = datagen.GenerateGaussians(cfg)
	case "census":
		ds, err = datagen.GenerateCensus(datagen.CensusConfig{Rows: rows, Seed: seed})
	case "clustered":
		ds, err = datagen.GenerateClustered(datagen.ClusteredConfig{Rows: rows, Seed: seed})
	default:
		t.Fatalf("unknown generator %q", gen)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestScoringEquivalence is the spine of the in-database scoring feature:
// for every workload generator, the in-client tree walk, the compiled CASE
// expression executed as SQL, the SCORE TABLE statement, and the vectorized
// catalog-model operator must produce byte-identical prediction vectors over
// the full table.
func TestScoringEquivalence(t *testing.T) {
	for _, gen := range []string{"tree", "gaussians", "census", "clustered"} {
		t.Run(gen, func(t *testing.T) {
			ds := equivDataset(t, gen, 3000, 11)
			tree, err := BuildInMemory(ds, Options{MaxDepth: 6})
			if err != nil {
				t.Fatal(err)
			}

			// Path A: the in-client row loop over the training rows.
			classes := make([]data.Value, len(ds.Rows))
			for i, row := range ds.Rows {
				classes[i] = tree.Predict(row)
			}
			want := predictionBytes(classes)

			eng := engine.New(sim.NewDefaultMeter(), 0)
			if _, err := engine.NewServer(eng, "cases", ds); err != nil {
				t.Fatal(err)
			}
			m, err := Compile(tree, "m")
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.RegisterModel(m); err != nil {
				t.Fatal(err)
			}

			// Path B: the compiled nested-CASE expression run as plain SQL.
			rs, err := eng.Exec(ScoreSQL(tree, "cases"))
			if err != nil {
				t.Fatal(err)
			}
			caseClasses := make([]data.Value, len(rs.Rows))
			for i, r := range rs.Rows {
				caseClasses[i] = data.Value(r[0].I)
			}
			if got := predictionBytes(caseClasses); !bytes.Equal(got, want) {
				t.Fatal("CASE-expression path diverges from the in-client tree walk")
			}

			// Path C: the vectorized catalog-model operator.
			res, err := eng.ScoreTable(mustTable(t, eng, "cases"), m)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != int64(len(ds.Rows)) {
				t.Fatalf("scored %d rows, want %d", res.Rows, len(ds.Rows))
			}
			if got := predictionBytes(res.Classes); !bytes.Equal(got, want) {
				t.Fatal("vectorized path diverges from the in-client tree walk")
			}
			// The leaf distribution behind every prediction must be the
			// training distribution of the leaf the tree walk lands in.
			for i, row := range ds.Rows {
				node := walkToLeafNode(tree, row)
				dist := res.Dist(m, i)
				if fmt.Sprint(dist) != fmt.Sprint(node.ClassCounts) {
					t.Fatalf("row %d: dist %v, want leaf counts %v", i, dist, node.ClassCounts)
				}
			}

			// Path C via SQL surface: SCORE TABLE ... USING m.
			rs, err = eng.Exec("SCORE TABLE cases USING m")
			if err != nil {
				t.Fatal(err)
			}
			// One result shape on every route: class, then the decision
			// node's count per class.
			if want := engine.ScoreCols(m.Classes); fmt.Sprint(rs.Cols) != fmt.Sprint(want) {
				t.Fatalf("SCORE TABLE columns = %v, want %v", rs.Cols, want)
			}
			stClasses := make([]data.Value, len(rs.Rows))
			for i, r := range rs.Rows {
				stClasses[i] = data.Value(r[0].I)
				counts := walkToLeafNode(tree, ds.Rows[i]).ClassCounts
				for c, n := range counts {
					if r[1+c].I != n {
						t.Fatalf("SCORE TABLE row %d: c%d = %d, want leaf count %d", i, c, r[1+c].I, n)
					}
				}
			}
			if got := predictionBytes(stClasses); !bytes.Equal(got, want) {
				t.Fatal("SCORE TABLE diverges from the in-client tree walk")
			}

			// Path D: CLASSIFY() over the table's attribute columns.
			cls := "CLASSIFY(m"
			for a := 0; a < ds.Schema.NumAttrs(); a++ {
				cls += ", " + ds.Schema.ColName(a)
			}
			cls += ")"
			rs, err = eng.Exec("SELECT " + cls + " FROM cases")
			if err != nil {
				t.Fatal(err)
			}
			clClasses := make([]data.Value, len(rs.Rows))
			for i, r := range rs.Rows {
				clClasses[i] = data.Value(r[0].I)
			}
			if got := predictionBytes(clClasses); !bytes.Equal(got, want) {
				t.Fatal("CLASSIFY() path diverges from the in-client tree walk")
			}
		})
	}
}

// walkToLeafNode walks the tree the same way Predict does but returns the
// leaf node itself, for distribution checks.
func walkToLeafNode(t *Tree, row data.Row) *Node {
	n := t.Root
	for !n.Leaf {
		next := step(n, row)
		if next == nil {
			return n
		}
		n = next
	}
	return n
}

// step mirrors Predict's one-level descent; nil means "stop here" (the
// unseen-value fallback at a multiway split).
func step(n *Node, row data.Row) *Node {
	if !n.Multiway {
		if row[n.SplitAttr] == n.SplitVal {
			return n.Children[0]
		}
		return n.Children[1]
	}
	for i, sv := range n.SplitVals {
		if row[n.SplitAttr] == sv {
			return n.Children[i]
		}
	}
	return nil
}

func mustTable(t *testing.T, eng *engine.Engine, name string) *engine.Table {
	t.Helper()
	tbl, err := eng.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
