package dtree

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

// noisyDataset: a weak signal (attribute 0) drowned in noise attributes, so
// a full tree heavily overfits.
func noisyDataset(n int, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	s := data.NewSchema(6, 3, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		r := make(data.Row, 7)
		for j := 0; j < 6; j++ {
			r[j] = data.Value(rng.Intn(3))
		}
		cls := data.Value(0)
		if r[0] == 2 {
			cls = 1
		}
		if rng.Float64() < 0.25 { // heavy label noise
			cls = 1 - cls
		}
		r[6] = cls
		ds.Append(r)
	}
	return ds
}

func TestReducedErrorPruningShrinksAndHelps(t *testing.T) {
	full := noisyDataset(3000, 1)
	train, rest := Split(full, 0.5, 1)
	valid, test := Split(rest, 0.5, 2)

	tree, err := BuildInMemory(train, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := tree.NumNodes
	accBefore := tree.Accuracy(test)

	pruned := tree.PruneReducedError(valid)
	if pruned == 0 {
		t.Fatal("nothing pruned from an overfit tree")
	}
	if tree.NumNodes >= before {
		t.Errorf("nodes %d -> %d, want shrink", before, tree.NumNodes)
	}
	if acc := tree.Accuracy(test); acc < accBefore-0.01 {
		t.Errorf("pruning hurt test accuracy: %.4f -> %.4f", accBefore, acc)
	}
	// Structural invariants survive pruning.
	tree.Walk(func(n *Node) {
		if n.Leaf && len(n.Children) != 0 {
			t.Error("leaf with children after pruning")
		}
		if !n.Leaf && len(n.Children) == 0 {
			t.Error("internal node without children after pruning")
		}
	})
	if tree.NumLeaves+countInternal(tree) != tree.NumNodes {
		t.Error("stats inconsistent after pruning")
	}
}

func countInternal(t *Tree) int {
	n := 0
	t.Walk(func(nd *Node) {
		if !nd.Leaf {
			n++
		}
	})
	return n
}

func TestPessimisticPruningShrinks(t *testing.T) {
	ds := noisyDataset(2000, 3)
	tree, err := BuildInMemory(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := tree.NumNodes
	pruned := tree.PrunePessimistic(0)
	if pruned == 0 || tree.NumNodes >= before {
		t.Errorf("pessimistic pruning: %d pruned, %d -> %d nodes", pruned, before, tree.NumNodes)
	}
	// Higher confidence prunes at least as much.
	tree2, _ := BuildInMemory(ds, Options{})
	tree2.PrunePessimistic(2.0)
	if tree2.NumNodes > tree.NumNodes {
		t.Errorf("z=2.0 left %d nodes, z=0.6745 left %d", tree2.NumNodes, tree.NumNodes)
	}
}

func TestPruningPureTreeIsNoop(t *testing.T) {
	ds := xorDataset(400)
	tree, _ := BuildInMemory(ds, Options{})
	before := tree.NumNodes
	if pruned := tree.PruneReducedError(ds); pruned != 0 {
		t.Errorf("reduced-error pruned %d nodes of a perfect tree", pruned)
	}
	if tree.NumNodes != before {
		t.Error("perfect tree shrank")
	}
}

func TestSplitPartitions(t *testing.T) {
	ds := noisyDataset(1000, 4)
	train, test := Split(ds, 0.3, 9)
	if train.N()+test.N() != ds.N() {
		t.Fatalf("split lost rows: %d + %d != %d", train.N(), test.N(), ds.N())
	}
	if test.N() != 300 {
		t.Errorf("test size = %d, want 300", test.N())
	}
	// Deterministic for the same seed.
	tr2, _ := Split(ds, 0.3, 9)
	if tr2.N() != train.N() || &tr2.Rows[0][0] != &train.Rows[0][0] {
		t.Error("split not deterministic")
	}
}

func TestConfusionMatrix(t *testing.T) {
	ds := xorDataset(200)
	tree, _ := BuildInMemory(ds, Options{})
	cm := Evaluate(tree, ds)
	if cm.Total() != 200 {
		t.Fatalf("total = %d", cm.Total())
	}
	if cm.Accuracy() != 1.0 {
		t.Errorf("accuracy = %v", cm.Accuracy())
	}
	for c := data.Value(0); c < 2; c++ {
		if cm.Precision(c) != 1.0 || cm.Recall(c) != 1.0 {
			t.Errorf("class %d: precision %v recall %v", c, cm.Precision(c), cm.Recall(c))
		}
	}
	if s := cm.String(); !strings.Contains(s, "acc=1.0000") {
		t.Errorf("render: %s", s)
	}
}

func TestConfusionMatrixEdgeCases(t *testing.T) {
	cm := &ConfusionMatrix{Classes: 2, M: [][]int64{{0, 0}, {0, 0}}}
	if cm.Accuracy() != 0 || cm.Precision(0) != 0 || cm.Recall(1) != 0 {
		t.Error("empty matrix must score 0")
	}
}

func TestWriteDot(t *testing.T) {
	ds, _, err := datagen.GenerateTreeData(datagen.TreeGenConfig{
		Leaves: 6, Attrs: 4, Values: 3, ValuesStdDev: 0, Classes: 3, CasesPerLeaf: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildInMemory(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tree.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	if !strings.HasPrefix(dot, "digraph tree {") || !strings.HasSuffix(dot, "}\n") {
		t.Errorf("malformed dot: %q...", dot[:40])
	}
	if strings.Count(dot, "->") != tree.NumNodes-1 {
		t.Errorf("%d edges for %d nodes", strings.Count(dot, "->"), tree.NumNodes)
	}

	// A multiway tree labels its edges.
	tree2, _ := BuildInMemory(ds, Options{Split: MultiwaySplit})
	var b2 strings.Builder
	if err := tree2.WriteDot(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "=") {
		t.Error("multiway dot missing edge labels")
	}
}

func TestCrossValidate(t *testing.T) {
	ds := noisyDataset(1200, 10)
	res, err := CrossValidate(ds, 5, Options{MaxDepth: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 || len(res.FoldAcc) != 5 {
		t.Fatalf("folds: %+v", res)
	}
	// The weak signal plus 25% label noise bounds accuracy near 0.75.
	if res.Mean < 0.6 || res.Mean > 0.85 {
		t.Errorf("CV accuracy %.3f outside the plausible band", res.Mean)
	}
	if res.StdDev < 0 || res.StdDev > 0.2 {
		t.Errorf("CV stddev %.3f implausible", res.StdDev)
	}
	// Deterministic for the same seed.
	res2, _ := CrossValidate(ds, 5, Options{MaxDepth: 4}, 1)
	if res2.Mean != res.Mean {
		t.Error("CV not deterministic")
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestCrossValidateErrors(t *testing.T) {
	ds := noisyDataset(10, 11)
	if _, err := CrossValidate(ds, 1, Options{}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := CrossValidate(ds, 11, Options{}, 1); err == nil {
		t.Error("k > rows accepted")
	}
}
