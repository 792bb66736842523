package mw_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
)

// This file checks relations between builds that need no oracle: transforming
// the input in a way the paper's definitions are blind to must leave the tree
// the middleware grows unchanged, up to the transformation.

// buildThrough grows the tree of ds through a middleware over a fresh server
// and returns it with the build's meter. The staging directory must be empty
// after Close.
func buildThrough(t *testing.T, ds *data.Dataset, cfg mw.Config, opt dtree.Options) (*dtree.Tree, *sim.Meter) {
	t.Helper()
	meter := sim.NewDefaultMeter()
	srv, err := engine.NewServer(engine.New(meter, 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	m, err := mw.New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(m, opt)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%+v %+v: %v", cfg, opt, err)
	}
	if entries, err := os.ReadDir(cfg.Dir); err != nil || len(entries) != 0 {
		t.Errorf("%+v: staging dir after Close: %v (err %v)", cfg, entries, err)
	}
	return tree, meter
}

// scaledCounts returns a copy of the subtree at n with every row and class
// count multiplied by k.
func scaledCounts(n *dtree.Node, k int64) *dtree.Node {
	c := *n
	c.Rows *= k
	c.ClassCounts = slices.Clone(n.ClassCounts)
	for i := range c.ClassCounts {
		c.ClassCounts[i] *= k
	}
	c.Children = make([]*dtree.Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = scaledCounts(ch, k)
	}
	return &c
}

// TestMetamorphicRelations: on census and tree data, unlimited, under an 8 KB
// budget that sheds requests and falls back to SQL, and with file+memory
// staging under a 128 KB budget that stages batches to files and memory, the
// middleware build
//   - grows the identical tree from a permutation of the rows, and
//   - grows the same tree, every count k times larger, from the rows repeated
//     k times with MinRows k times larger.
//
// On the same data, at GOMAXPROCS 1 and 4, unlimited and under a 6 KB budget,
// it also (schemaRelations)
//   - grows an isomorphic tree — each test on the attribute renamed — when one
//     split attribute's values are relabeled by a permutation,
//   - grows the identical tree when a constant attribute is appended, and
//   - grows the identical tree, attributes renumbered, when an attribute it
//     never splits on is dropped.
func TestMetamorphicRelations(t *testing.T) {
	census, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 4000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.TreeGenConfig{Seed: 5, Leaves: 30, Attrs: 8}.Normalize()
	gen.CasesPerLeaf = 50
	tree, _, err := datagen.GenerateTreeData(gen)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	cases := []struct {
		name string
		ds   *data.Dataset
		opt  dtree.Options
	}{
		{"census", census, dtree.Options{MaxDepth: 6, MinRows: 20}},
		{"tree", tree, dtree.Options{Measure: dtree.Gini, MinRows: 10}},
	}
	var fallbacks, files, memRows int64
	for _, c := range cases {
		schemaRelations(t, c.name, c.ds, c.opt)
		rng := rand.New(rand.NewSource(int64(len(c.ds.Rows))))
		permuted := &data.Dataset{Schema: c.ds.Schema, Rows: slices.Clone(c.ds.Rows)}
		rng.Shuffle(len(permuted.Rows), func(i, j int) {
			permuted.Rows[i], permuted.Rows[j] = permuted.Rows[j], permuted.Rows[i]
		})
		repeated := &data.Dataset{Schema: c.ds.Schema}
		for _, r := range c.ds.Rows {
			for range k {
				repeated.Rows = append(repeated.Rows, r)
			}
		}
		kOpt := c.opt
		kOpt.MinRows *= k
		for _, cfg := range []mw.Config{
			{}, {Memory: 8 << 10}, {Staging: mw.StageFileAndMemory, Memory: 128 << 10},
		} {
			name := fmt.Sprintf("%s/memory=%d", c.name, cfg.Memory)
			if cfg.Staging != mw.StageNone {
				name += "/staging=" + cfg.Staging.String()
			}
			t.Run(name, func(t *testing.T) {
				want, _ := buildThrough(t, c.ds, cfg, c.opt)
				if want.Root.Leaf {
					t.Fatal("the reference build is a single leaf: nothing to compare")
				}
				got, _ := buildThrough(t, permuted, cfg, c.opt)
				if err := sameNode("root", got.Root, want.Root); err != nil {
					t.Errorf("permuted rows: %v", err)
				}
				got, meter := buildThrough(t, repeated, cfg, kOpt)
				if err := sameNode("root", got.Root, scaledCounts(want.Root, k)); err != nil {
					t.Errorf("rows repeated %d times: %v", k, err)
				}
				fallbacks += meter.Count(sim.CtrSQLFallbacks)
				if cfg.Staging != mw.StageNone {
					files += meter.Count(sim.CtrFilesCreated)
					memRows += meter.Count(sim.CtrMemRowsRead)
				}
			})
		}
	}
	if fallbacks == 0 {
		t.Error("no request fell back to SQL under the 8 KB budget")
	}
	if files == 0 || memRows == 0 {
		t.Errorf("staged runs created %d files and read %d rows from memory: the relations did not run over staged sources", files, memRows)
	}
}

// schemaRelations runs the relations of TestMetamorphicRelations that change
// the schema or the values rather than the rows: relabeling, a constant
// attribute appended, an unused attribute dropped.
func schemaRelations(t *testing.T, name string, ds *data.Dataset, opt dtree.Options) {
	var fallbacks int64
	for _, procs := range []int{1, 4} {
		for _, memory := range []int64{0, 6 << 10} {
			t.Run(fmt.Sprintf("%s/procs=%d/memory=%d/schema", name, procs, memory), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := mw.Config{Memory: memory}
				want, meter := buildThrough(t, ds, cfg, opt)
				if want.Root.Leaf {
					t.Fatal("the reference build is a single leaf: nothing to compare")
				}
				fallbacks += meter.Count(sim.CtrSQLFallbacks)

				a := want.Root.SplitAttr
				perm := relabeling(rand.New(rand.NewSource(int64(a))), ds.Schema.Attrs[a].Card)
				got, _ := buildThrough(t, relabeled(ds, a, perm), cfg, opt)
				if err := sameNode("root", got.Root, relabeledTree(want.Root, ds, a, perm)); err != nil {
					t.Errorf("attribute %d relabeled by %v: %v", a, perm, err)
				}

				got, _ = buildThrough(t, withConstant(ds), cfg, opt)
				if err := sameNode("root", got.Root, want.Root); err != nil {
					t.Errorf("constant attribute appended: %v", err)
				}

				used := map[int]bool{}
				splitAttrs(want.Root, used)
				d := -1
				for i := range ds.Schema.Attrs {
					if !used[i] {
						d = i
						break
					}
				}
				if d < 0 {
					t.Fatalf("the tree splits on all %d attributes: none to drop", len(ds.Schema.Attrs))
				}
				got, _ = buildThrough(t, withoutAttr(ds, d), cfg, opt)
				if err := sameNode("root", got.Root, renumberedTree(want.Root, d)); err != nil {
					t.Errorf("unused attribute %d dropped: %v", d, err)
				}
			})
		}
	}
	if fallbacks == 0 {
		t.Errorf("%s: no request fell back to SQL under the 6 KB budget", name)
	}
}

// relabeling returns a permutation of 0..card-1 that moves at least one value.
func relabeling(rng *rand.Rand, card int) []data.Value {
	perm := make([]data.Value, card)
	for {
		for v, p := range rng.Perm(card) {
			perm[v] = data.Value(p)
		}
		if card < 2 || slices.ContainsFunc(perm, func(p data.Value) bool { return perm[p] != p }) {
			return perm
		}
	}
}

// relabeled returns ds with attribute a's values mapped through perm.
func relabeled(ds *data.Dataset, a int, perm []data.Value) *data.Dataset {
	out := &data.Dataset{Schema: ds.Schema, Rows: make([]data.Row, len(ds.Rows))}
	for i, r := range ds.Rows {
		r = slices.Clone(r)
		if r[a] != data.Missing {
			r[a] = perm[r[a]]
		}
		out.Rows[i] = r
	}
	return out
}

// withConstant returns ds with one more attribute, holding 0 in every row,
// after the others: every attribute keeps its index.
func withConstant(ds *data.Dataset) *data.Dataset {
	sc := ds.Schema.Clone()
	sc.Attrs = append(sc.Attrs, data.Attribute{Name: "constant", Card: 1})
	out := &data.Dataset{Schema: sc, Rows: make([]data.Row, len(ds.Rows))}
	for i, r := range ds.Rows {
		n := len(r) - 1
		out.Rows[i] = append(append(slices.Clip(r[:n:n]), 0), r[n])
	}
	return out
}

// withoutAttr returns ds without attribute d: the attributes after it move
// down one index.
func withoutAttr(ds *data.Dataset, d int) *data.Dataset {
	sc := ds.Schema.Clone()
	sc.Attrs = slices.Delete(sc.Attrs, d, d+1)
	out := &data.Dataset{Schema: sc, Rows: make([]data.Row, len(ds.Rows))}
	for i, r := range ds.Rows {
		out.Rows[i] = slices.Delete(slices.Clone(r), d, d+1)
	}
	return out
}

// splitAttrs adds every attribute the subtree at n splits on to used.
func splitAttrs(n *dtree.Node, used map[int]bool) {
	if n.Leaf {
		return
	}
	used[n.SplitAttr] = true
	for _, ch := range n.Children {
		splitAttrs(ch, used)
	}
}

// relabeledTree returns a copy of the subtree at n (a tree of ds) whose tests
// on attribute a name perm's values, in the form the builder gives it: a
// multiway node's arms ascend by their new values, and a binary node whose
// rows hold just two values of a — where A = v and A = w are one partition,
// and the builder takes the lower value — tests the lower new value, its arms
// swapped if that is the other one.
func relabeledTree(n *dtree.Node, ds *data.Dataset, a int, perm []data.Value) *dtree.Node {
	c := *n
	c.Children = make([]*dtree.Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = relabeledTree(ch, ds, a, perm)
	}
	if n.Leaf || n.SplitAttr != a {
		return &c
	}
	c.SplitVal = perm[n.SplitVal]
	if !n.Multiway {
		var vals []data.Value
		for _, r := range ds.Rows {
			if n.Path.Eval(r) && !slices.Contains(vals, r[a]) {
				vals = append(vals, r[a])
			}
		}
		if len(vals) == 2 {
			other := vals[0] + vals[1] - n.SplitVal
			if perm[other] < c.SplitVal {
				c.SplitVal = perm[other]
				c.Children[0], c.Children[1] = c.Children[1], c.Children[0]
			}
		}
	}
	if n.Multiway {
		order := make([]int, len(n.SplitVals))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int { return int(perm[n.SplitVals[i]] - perm[n.SplitVals[j]]) })
		c.SplitVals = make([]data.Value, len(order))
		kids := c.Children
		c.Children = make([]*dtree.Node, len(order))
		for k, i := range order {
			c.SplitVals[k], c.Children[k] = perm[n.SplitVals[i]], kids[i]
		}
	}
	return &c
}

// renumberedTree returns a copy of the subtree at n with attribute d gone
// from its numbering: the tree never splits on d, and every attribute after
// it moves down one index.
func renumberedTree(n *dtree.Node, d int) *dtree.Node {
	c := *n
	if !n.Leaf && n.SplitAttr > d {
		c.SplitAttr--
	}
	c.Children = make([]*dtree.Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = renumberedTree(ch, d)
	}
	return &c
}
