package dtree

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/predicate"
)

// xorDataset builds a two-attribute XOR dataset: class = a XOR b, which
// needs exactly two levels of binary splits.
func xorDataset(n int) *data.Dataset {
	s := data.NewSchema(2, 2, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		a := data.Value(i % 2)
		b := data.Value((i / 2) % 2)
		ds.Append(data.Row{a, b, a ^ b})
	}
	return ds
}

// singleAttrDataset: class fully determined by attribute 0.
func singleAttrDataset(n int) *data.Dataset {
	s := data.NewSchema(3, 3, 3)
	ds := data.NewDataset(s)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		a := data.Value(rng.Intn(3))
		ds.Append(data.Row{a, data.Value(rng.Intn(3)), data.Value(rng.Intn(3)), a})
	}
	return ds
}

func TestBuildInMemoryXOR(t *testing.T) {
	ds := xorDataset(400)
	tree, err := BuildInMemory(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(ds); acc != 1.0 {
		t.Errorf("XOR accuracy = %v, want 1", acc)
	}
	if tree.MaxDepth != 2 {
		t.Errorf("XOR depth = %d, want 2", tree.MaxDepth)
	}
	if tree.NumLeaves != 4 {
		t.Errorf("XOR leaves = %d, want 4", tree.NumLeaves)
	}
}

func TestSingleInformativeAttributeChosen(t *testing.T) {
	ds := singleAttrDataset(900)
	for _, m := range []Measure{Entropy, Gini, GainRatio} {
		tree, err := BuildInMemory(ds, Options{Measure: m})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Root.SplitAttr != 0 {
			t.Errorf("measure %v: root split on A%d, want A1", m, tree.Root.SplitAttr+1)
		}
		if acc := tree.Accuracy(ds); acc != 1.0 {
			t.Errorf("measure %v: accuracy %v", m, acc)
		}
	}
}

func TestMultiwaySplit(t *testing.T) {
	ds := singleAttrDataset(900)
	tree, err := BuildInMemory(ds, Options{Split: MultiwaySplit})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Multiway || tree.Root.SplitAttr != 0 {
		t.Fatalf("root = %+v", tree.Root)
	}
	if len(tree.Root.Children) != 3 {
		t.Errorf("children = %d, want 3", len(tree.Root.Children))
	}
	if acc := tree.Accuracy(ds); acc != 1.0 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestMaxDepthAndMinRows(t *testing.T) {
	ds := xorDataset(400)
	tree, err := BuildInMemory(ds, Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxDepth > 1 {
		t.Errorf("depth = %d, want <= 1", tree.MaxDepth)
	}
	tree2, err := BuildInMemory(ds, Options{MinRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !tree2.Root.Leaf {
		t.Error("MinRows above N must keep the root a leaf")
	}
}

// impurity computes the configured impurity of a class histogram with n
// total rows by its textbook formula: the reference the split search's
// n-weighted form (weighted) is checked against.
func impurity(m Measure, counts []int64, n int64) float64 {
	if n == 0 {
		return 0
	}
	switch m {
	case Gini:
		g := 1.0
		for _, c := range counts {
			if c > 0 {
				p := float64(c) / float64(n)
				g -= p * p
			}
		}
		return g
	default: // Entropy and GainRatio both use entropy as the impurity
		h := 0.0
		for _, c := range counts {
			if c > 0 {
				p := float64(c) / float64(n)
				h -= p * math.Log2(p)
			}
		}
		return h
	}
}

// TestWeightedMatchesImpurity: the split search's n-weighted impurity,
// divided by n, agrees with the textbook formula to 1e-12 on random
// histograms of 1 to 12 classes — counts inside xlogx's table, past its end
// and straddling it — for entropy and Gini; and xlogx reads the same figure
// from its table as it computes past it.
func TestWeightedMatchesImpurity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	end := int64(len(xlogxTable))
	for _, x := range []int64{0, 1, 2, end - 1} {
		if f := float64(x); x > 1 && xlogx(x) != f*math.Log2(f) || x <= 1 && xlogx(x) != 0 {
			t.Fatalf("xlogx(%d) = %v", x, xlogx(x))
		}
	}
	for trial := 0; trial < 20000; trial++ {
		top := []int64{8, end, 4 * end, 1 << 24}[trial%4]
		counts := make([]int64, 1+rng.Intn(12))
		var n int64
		for i := range counts {
			if rng.Intn(4) > 0 {
				counts[i] = rng.Int63n(top)
				n += counts[i]
			}
		}
		for _, m := range []Measure{Entropy, Gini} {
			var got float64
			if n > 0 {
				got = weighted(m, counts, n) / float64(n)
			}
			if want := impurity(m, counts, n); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v of %v: n-weighted form gives %.17g, formula %.17g", m, counts, got, want)
			}
		}
	}
}

func TestImpurityFunctions(t *testing.T) {
	if h := impurity(Entropy, []int64{5, 5}, 10); math.Abs(h-1.0) > 1e-9 {
		t.Errorf("entropy(5,5) = %v, want 1", h)
	}
	if h := impurity(Entropy, []int64{10, 0}, 10); h != 0 {
		t.Errorf("entropy(10,0) = %v, want 0", h)
	}
	if g := impurity(Gini, []int64{5, 5}, 10); math.Abs(g-0.5) > 1e-9 {
		t.Errorf("gini(5,5) = %v, want 0.5", g)
	}
	if g := impurity(Gini, []int64{10, 0}, 10); g != 0 {
		t.Errorf("gini(10,0) = %v", g)
	}
	if h := impurity(Entropy, nil, 0); h != 0 {
		t.Errorf("empty impurity = %v", h)
	}
}

func TestMajority(t *testing.T) {
	cls, pure := majority([]int64{0, 7, 0})
	if cls != 1 || !pure {
		t.Errorf("majority = %d pure=%v", cls, pure)
	}
	cls, pure = majority([]int64{3, 7, 2})
	if cls != 1 || pure {
		t.Errorf("majority = %d pure=%v", cls, pure)
	}
	// Ties break to the lowest class index.
	cls, _ = majority([]int64{5, 5})
	if cls != 0 {
		t.Errorf("tie majority = %d", cls)
	}
}

func TestDecideDeterministicTieBreak(t *testing.T) {
	// Two identical attributes: the split must pick the lower index.
	s := data.NewSchema(2, 2, 2)
	ds := data.NewDataset(s)
	for i := 0; i < 100; i++ {
		v := data.Value(i % 2)
		ds.Append(data.Row{v, v, v})
	}
	tree, err := BuildInMemory(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.SplitAttr != 0 {
		t.Errorf("tie broke to attribute %d, want 0", tree.Root.SplitAttr)
	}
}

func TestPredictUnseenMultiwayValue(t *testing.T) {
	ds := singleAttrDataset(300)
	tree, err := BuildInMemory(ds, Options{Split: MultiwaySplit})
	if err != nil {
		t.Fatal(err)
	}
	// Value 9 was never seen: prediction falls back to the node majority.
	row := data.Row{9, 0, 0, 0}
	got := tree.Predict(row)
	if int(got) < 0 || int(got) >= 3 {
		t.Errorf("prediction %d out of range", got)
	}
}

func TestBuildersAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := data.NewSchema(5, 3, 3)
		ds := data.NewDataset(s)
		for i := 0; i < 600; i++ {
			r := make(data.Row, 6)
			for j := 0; j < 5; j++ {
				r[j] = data.Value(rng.Intn(3))
			}
			r[5] = data.Value((int(r[0]) + int(r[1])) % 3)
			ds.Append(r)
		}
		for _, opt := range []Options{{}, {Split: MultiwaySplit}, {Measure: Gini}, {MaxDepth: 3}} {
			ref, err := BuildInMemory(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			lvl, err := BuildLevelwise(ds, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(ref, lvl) {
				t.Errorf("seed %d opt %+v: levelwise differs", seed, opt)
			}
			fetch := func(path predicate.Conj, attrs []int) (*cc.Table, error) {
				countAttrs := append(append([]int(nil), attrs...), s.ClassIndex())
				return cc.FromDataset(ds, countAttrs, path.Eval), nil
			}
			bwc, err := BuildWithCounts(s, int64(ds.N()), opt, fetch)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(ref, bwc) {
				t.Errorf("seed %d opt %+v: BuildWithCounts differs", seed, opt)
			}
		}
	}
}

func TestLevelwiseOnRowCallbackCount(t *testing.T) {
	ds := xorDataset(200)
	var touches int
	tree, err := BuildLevelwise(ds, Options{}, func() { touches++ })
	if err != nil {
		t.Fatal(err)
	}
	// XOR needs the root pass plus one pass for the two depth-1 nodes:
	// 2 generations x 200 rows (depth-2 children are terminal by probe).
	want := 2 * ds.N()
	if touches != want {
		t.Errorf("touches = %d, want %d (tree depth %d)", touches, want, tree.MaxDepth)
	}
}

func TestRulesAndStats(t *testing.T) {
	ds := xorDataset(100)
	tree, _ := BuildInMemory(ds, Options{})
	rules := tree.Rules()
	if len(rules) != tree.NumLeaves {
		t.Errorf("%d rules for %d leaves", len(rules), tree.NumLeaves)
	}
	for _, r := range rules {
		if !strings.Contains(r, "IF ") || !strings.Contains(r, "THEN class = ") {
			t.Errorf("malformed rule %q", r)
		}
	}
	st := tree.Stats()
	if st.Nodes != tree.NumNodes || st.Leaves != tree.NumLeaves || st.Depth != tree.MaxDepth {
		t.Error("Stats disagree with fields")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	ds := xorDataset(100)
	a, _ := BuildInMemory(ds, Options{})
	b, _ := BuildInMemory(ds, Options{})
	if !Equal(a, b) {
		t.Fatal("identical builds unequal")
	}
	c, _ := BuildInMemory(ds, Options{MaxDepth: 1})
	if Equal(a, c) {
		t.Error("different trees equal")
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	ds := xorDataset(100)
	tree, _ := BuildInMemory(ds, Options{})
	n := 0
	tree.Walk(func(*Node) { n++ })
	if n != tree.NumNodes {
		t.Errorf("Walk visited %d of %d nodes", n, tree.NumNodes)
	}
}

func TestExpandSizesSumToParent(t *testing.T) {
	ds := singleAttrDataset(500)
	s := ds.Schema
	countAttrs := []int{0, 1, 2, s.ClassIndex()}
	table := cc.FromDataset(ds, countAttrs, nil)
	n := &Node{Attrs: []int{0, 1, 2}, Rows: int64(ds.N())}
	n.ClassCounts = classTotals(table, s.ClassIndex(), 3)

	dec := decide(table, n.Attrs, n.ClassCounts, n.Rows, 0, Options{})
	if dec.leaf {
		t.Fatal("expected a split")
	}
	specs := expand(table, n, dec, 3)
	var sumRows int64
	for _, sp := range specs {
		sumRows += sp.rows
		var sumClasses int64
		for _, c := range sp.classCounts {
			sumClasses += c
		}
		if sumClasses != sp.rows {
			t.Errorf("child class counts sum %d != rows %d", sumClasses, sp.rows)
		}
	}
	if sumRows != n.Rows {
		t.Errorf("children rows sum %d != parent rows %d (§4.2.1 exactness)", sumRows, n.Rows)
	}
}

func TestBinarySplitDropsExhaustedAttr(t *testing.T) {
	// Binary attribute: both children must drop it.
	s := data.NewSchema(2, 2, 2)
	ds := data.NewDataset(s)
	for i := 0; i < 100; i++ {
		a := data.Value(i % 2)
		ds.Append(data.Row{a, data.Value(i % 2), a})
	}
	tree, _ := BuildInMemory(ds, Options{})
	root := tree.Root
	if root.Leaf {
		t.Fatal("root is a leaf")
	}
	for _, ch := range root.Children {
		for _, a := range ch.Attrs {
			if a == root.SplitAttr {
				t.Errorf("child kept exhausted binary attribute %d", a)
			}
		}
	}
}
