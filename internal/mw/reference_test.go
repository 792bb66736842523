package mw_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/mw"
	"repro/internal/sim"
)

// This file is a reference builder written from the paper's definitions and
// the rules dtree.go documents, sharing nothing with the builder but
// data.Dataset and the Tree type: it counts (attribute, value, class) triples
// in a map over the raw rows of each node, scores every candidate split by the
// impurity formulas, and recurses on the rows themselves. It is slow on purpose.

// refKey is one counted triple.
type refKey struct {
	attr       int
	val, class data.Value
}

type refBuilder struct {
	opt       dtree.Options
	classCard int
}

// refBuild grows the tree of ds under opt.
func refBuild(ds *data.Dataset, opt dtree.Options) *dtree.Tree {
	b := &refBuilder{opt: opt, classCard: ds.Schema.Class.Card}
	attrs := make([]int, ds.Schema.NumAttrs())
	for a := range attrs {
		attrs[a] = a
	}
	return &dtree.Tree{Root: b.grow(ds.Rows, attrs, 0), Schema: ds.Schema}
}

// impurity is the entropy −Σ p·log2 p (Entropy and GainRatio) or the Gini
// index 1 − Σ p² of a class histogram over n rows.
func (b *refBuilder) impurity(hist []int64, n int64) float64 {
	if n == 0 {
		return 0
	}
	if b.opt.Measure == dtree.Gini {
		g := 1.0
		for _, c := range hist {
			if c > 0 {
				p := float64(c) / float64(n)
				g -= p * p
			}
		}
		return g
	}
	h := 0.0
	for _, c := range hist {
		if c > 0 {
			p := float64(c) / float64(n)
			h -= p * math.Log2(p)
		}
	}
	return h
}

func (b *refBuilder) grow(rows []data.Row, attrs []int, depth int) *dtree.Node {
	counts := map[refKey]int64{}
	n := &dtree.Node{Attrs: attrs, Rows: int64(len(rows)), Depth: depth, ClassCounts: make([]int64, b.classCard)}
	for _, r := range rows {
		n.ClassCounts[r.Class()]++
		for _, a := range attrs {
			counts[refKey{a, r[a], r.Class()}]++
		}
	}
	kinds := 0
	for c, k := range n.ClassCounts { // majority: the lowest class among the most frequent
		if k > n.ClassCounts[n.Class] {
			n.Class = data.Value(c)
		}
		if k > 0 {
			kinds++
		}
	}
	minRows := max(b.opt.MinRows, 2)
	n.Leaf = true
	if kinds <= 1 || n.Rows < minRows || len(attrs) == 0 || b.opt.MaxDepth > 0 && depth >= b.opt.MaxDepth {
		return n
	}
	vecOf := func(a int, v data.Value) ([]int64, int64) {
		vec, sum := make([]int64, b.classCard), int64(0)
		for c := range vec {
			vec[c] = counts[refKey{a, v, data.Value(c)}]
			sum += vec[c]
		}
		return vec, sum
	}
	h0, total := b.impurity(n.ClassCounts, n.Rows), float64(n.Rows)
	bestGain, bestAttr, bestVal := -1.0, -1, data.Value(0)
	// Candidates in attribute, then value order; a later one must gain more
	// by 1e-12, so ties go to the lower attribute and value.
	for _, a := range attrs {
		var vals []data.Value
		for _, r := range rows {
			if !slices.Contains(vals, r[a]) {
				vals = append(vals, r[a])
			}
		}
		slices.Sort(vals)
		if len(vals) < 2 {
			continue
		}
		if b.opt.Split == dtree.MultiwaySplit {
			var rem, splitInfo float64
			for _, v := range vals {
				vec, nv := vecOf(a, v)
				p := float64(nv) / total
				rem += p * b.impurity(vec, nv)
				splitInfo -= p * math.Log2(p)
			}
			gain := h0 - rem
			if b.opt.Measure == dtree.GainRatio && splitInfo > 0 {
				gain /= splitInfo
			}
			if gain > bestGain+1e-12 {
				bestGain, bestAttr = gain, a
			}
			continue
		}
		for _, v := range vals {
			vec, n1 := vecOf(a, v)
			n2 := n.Rows - n1
			rest := make([]int64, b.classCard)
			for c := range rest {
				rest[c] = n.ClassCounts[c] - vec[c]
			}
			p1 := float64(n1) / total
			gain := h0 - (p1*b.impurity(vec, n1) + float64(n2)/total*b.impurity(rest, n2))
			if si := -(p1*math.Log2(p1) + (1-p1)*math.Log2(1-p1)); b.opt.Measure == dtree.GainRatio && si > 0 {
				gain /= si
			}
			if gain > bestGain+1e-12 {
				bestGain, bestAttr, bestVal = gain, a, v
			}
		}
	}
	if bestAttr < 0 {
		return n
	}
	n.Leaf, n.SplitAttr = false, bestAttr
	without := slices.DeleteFunc(slices.Clone(attrs), func(a int) bool { return a == bestAttr })
	part := func(keep func(data.Value) bool) []data.Row {
		var out []data.Row
		for _, r := range rows {
			if keep(r[bestAttr]) {
				out = append(out, r)
			}
		}
		return out
	}
	if b.opt.Split == dtree.MultiwaySplit {
		n.Multiway = true
		for _, r := range rows {
			if !slices.Contains(n.SplitVals, r[bestAttr]) {
				n.SplitVals = append(n.SplitVals, r[bestAttr])
			}
		}
		slices.Sort(n.SplitVals)
		for _, v := range n.SplitVals {
			n.Children = append(n.Children, b.grow(part(func(x data.Value) bool { return x == v }), without, depth+1))
		}
		return n
	}
	// A = v drops A; A <> v keeps it while it still has two values there.
	n.SplitVal = bestVal
	ne := part(func(x data.Value) bool { return x != bestVal })
	neAttrs := attrs
	if !hasTwoValues(ne, bestAttr) {
		neAttrs = without
	}
	n.Children = []*dtree.Node{
		b.grow(part(func(x data.Value) bool { return x == bestVal }), without, depth+1),
		b.grow(ne, neAttrs, depth+1),
	}
	return n
}

// hasTwoValues reports whether rows hold at least two values of attribute a.
func hasTwoValues(rows []data.Row, a int) bool {
	for _, r := range rows[min(1, len(rows)):] {
		if r[a] != rows[0][a] {
			return true
		}
	}
	return false
}

// sameNode reports the first place two trees differ: rows, class histogram,
// label, leaf-ness or split.
func sameNode(path string, got, want *dtree.Node) error {
	switch {
	case got.Rows != want.Rows || !slices.Equal(got.ClassCounts, want.ClassCounts) || got.Class != want.Class:
		return fmt.Errorf("%s: rows %d classes %v label %d, reference %d %v %d", path, got.Rows, got.ClassCounts, got.Class, want.Rows, want.ClassCounts, want.Class)
	case got.Leaf != want.Leaf:
		return fmt.Errorf("%s: leaf %v, reference %v", path, got.Leaf, want.Leaf)
	case got.Leaf:
		return nil
	case got.SplitAttr != want.SplitAttr || got.Multiway != want.Multiway || !got.Multiway && got.SplitVal != want.SplitVal ||
		!slices.Equal(got.SplitVals, want.SplitVals) || len(got.Children) != len(want.Children):
		return fmt.Errorf("%s: split on %d (= %d, multiway %v %v), reference %d (= %d, %v %v)", path,
			got.SplitAttr, got.SplitVal, got.Multiway, got.SplitVals, want.SplitAttr, want.SplitVal, want.Multiway, want.SplitVals)
	}
	for i := range got.Children {
		if err := sameNode(fmt.Sprintf("%s/%d", path, i), got.Children[i], want.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestBuildMatchesReference: dtree.Build through the middleware — which derives
// a split's largest counts table from its parent's and its siblings' wherever a
// batch allows — grows the reference builder's tree, node for node, on small
// census and tree-data draws: binary and multiway splits, all three measures,
// MaxDepth and MinRows, unlimited and under an 8 KB budget that
// sheds requests and falls back to SQL.
func TestBuildMatchesReference(t *testing.T) {
	census, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 10000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.TreeGenConfig{Seed: 3, Leaves: 40, Attrs: 8}.Normalize()
	gen.CasesPerLeaf = 50
	tree, _, err := datagen.GenerateTreeData(gen)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ds   *data.Dataset
		opt  dtree.Options
	}{
		{"census/binary", census, dtree.Options{MaxDepth: 6, MinRows: 40}},
		{"census/gini", census, dtree.Options{Measure: dtree.Gini, MaxDepth: 5, MinRows: 100}},
		{"census/multiway", census, dtree.Options{Split: dtree.MultiwaySplit, MaxDepth: 3}},
		{"tree/binary", tree, dtree.Options{MinRows: 20}},
		{"tree/gain-ratio", tree, dtree.Options{Measure: dtree.GainRatio, MaxDepth: 7}},
		{"tree/multiway", tree, dtree.Options{Split: dtree.MultiwaySplit, Measure: dtree.Gini, MinRows: 30}},
	}
	nodes, _ := mw.Derived("")
	var fallbacks int64
	for _, c := range cases {
		want := refBuild(c.ds, c.opt)
		for _, cfg := range []mw.Config{{}, {Memory: 8 << 10}} {
			t.Run(fmt.Sprintf("%s/memory=%d", c.name, cfg.Memory), func(t *testing.T) {
				got, meter := buildThrough(t, c.ds, cfg, c.opt)
				if err := sameNode("root", got.Root, want.Root); err != nil {
					t.Fatal(err)
				}
				fallbacks += meter.Count(sim.CtrSQLFallbacks)
			})
		}
	}
	if after, _ := mw.Derived(""); after == nodes || fallbacks == 0 {
		t.Errorf("%d nodes derived and %d requests fell back to SQL: both should", after-nodes, fallbacks)
	}
}
