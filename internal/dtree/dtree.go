// Package dtree implements the decision-tree classification client of §2–§3
// of the paper: Algorithm Grow driven entirely by sufficient statistics.
//
// The client never touches rows. For every active node it requests the
// node's counts (CC) table — from the middleware (Build) or from an
// in-memory dataset (BuildInMemory, the reference implementation the
// property tests compare against) — scores all candidate partitions with the
// configured measure, picks the best, and grows the tree one level. Node
// termination follows §2.1: a node becomes a leaf when it is pure, when no
// attribute can split it further, or when a configured depth/size limit is
// reached.
//
// The split decision is a pure function of the CC table, so the tree the
// client produces is independent of the order in which the middleware
// chooses to fulfil requests — the property §3.1 relies on ("this approach
// does not affect the decision tree that is finally produced").
package dtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/predicate"
)

// Measure selects the partition scoring function.
type Measure int

const (
	// Entropy is the information-gain measure of ID3/C4.5/CART used in the
	// paper's experiments (§3.1).
	Entropy Measure = iota
	// Gini is the Gini-index impurity of CART.
	Gini
	// GainRatio is C4.5's gain ratio (information gain normalized by split
	// information).
	GainRatio
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case Entropy:
		return "entropy"
	case Gini:
		return "gini"
	case GainRatio:
		return "gain-ratio"
	}
	return fmt.Sprintf("measure(%d)", int(m))
}

// SplitStyle selects the partition shape.
type SplitStyle int

const (
	// BinarySplit partitions a node into A = v versus A <> v, the form the
	// paper's experiments grow ("only binary trees were grown from the
	// data", §5.1.3) and the form §4.2.1's estimators assume.
	BinarySplit SplitStyle = iota
	// MultiwaySplit partitions on every observed value of the chosen
	// attribute (complete splits, [F94]).
	MultiwaySplit
)

// String names the split style.
func (s SplitStyle) String() string {
	switch s {
	case BinarySplit:
		return "binary"
	case MultiwaySplit:
		return "multiway"
	}
	return fmt.Sprintf("split(%d)", int(s))
}

// Options configures tree growth. The zero value grows a full binary
// entropy tree (no pruning), matching the paper's experimental setup. There
// is no gain floor: like the paper's clients, a node grows until it is pure
// or unsplittable, even through zero-gain splits (which XOR-like concepts
// need).
type Options struct {
	Measure Measure
	Split   SplitStyle
	// MaxDepth stops splitting below this depth (0 = unlimited).
	MaxDepth int
	// MinRows is the minimum node size eligible for splitting (values < 2
	// are treated as 2).
	MinRows int64

	// probeOnly restricts decide to the termination criteria decidable
	// without a CC table; set internally when pre-screening fresh children.
	probeOnly bool
}

func (o Options) minRows() int64 {
	if o.MinRows < 2 {
		return 2
	}
	return o.MinRows
}

// Node is one tree node.
type Node struct {
	ID   int
	Path predicate.Conj // conjunction of edge conditions from the root
	// Attrs are the attribute indices still available below this node.
	Attrs []int
	Rows  int64
	Depth int
	// ClassCounts is the node's class histogram.
	ClassCounts []int64
	// Class is the majority class (the leaf label; internal nodes keep it
	// as the fallback prediction for unseen attribute values).
	Class data.Value

	Leaf bool
	// SplitAttr/SplitVal describe the partition at an internal node. For a
	// BinarySplit, Children[0] is A = SplitVal and Children[1] is
	// A <> SplitVal. For a MultiwaySplit, Children[i] is A = SplitVals[i].
	SplitAttr int
	SplitVal  data.Value
	Multiway  bool
	SplitVals []data.Value
	Children  []*Node
}

// Tree is a grown decision tree.
type Tree struct {
	Root      *Node
	Schema    *data.Schema
	NumNodes  int
	NumLeaves int
	MaxDepth  int
}

// Predict returns the predicted class for a row (only the attribute columns
// are consulted, so rows with or without a trailing class value work).
func (t *Tree) Predict(row data.Row) data.Value {
	n := t.Root
	for !n.Leaf {
		v := row[n.SplitAttr]
		if !n.Multiway {
			if v == n.SplitVal {
				n = n.Children[0]
			} else {
				n = n.Children[1]
			}
			continue
		}
		next := (*Node)(nil)
		for i, sv := range n.SplitVals {
			if sv == v {
				next = n.Children[i]
				break
			}
		}
		if next == nil {
			return n.Class // unseen value: majority fallback
		}
		n = next
	}
	return n.Class
}

// Accuracy returns the fraction of rows in ds whose class the tree predicts
// correctly.
func (t *Tree) Accuracy(ds *data.Dataset) float64 {
	if ds.N() == 0 {
		return 0
	}
	correct := 0
	for _, r := range ds.Rows {
		if t.Predict(r) == r.Class() {
			correct++
		}
	}
	return float64(correct) / float64(ds.N())
}

// Walk visits every node in depth-first, child-order traversal.
func (t *Tree) Walk(fn func(*Node)) { walkNode(t.Root, fn) }

func walkNode(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		walkNode(c, fn)
	}
}

// Frontier statistics used by the experiment harness.
type Stats struct {
	Nodes, Leaves, Depth int
}

// Stats returns node/leaf/depth counts.
func (t *Tree) Stats() Stats {
	return Stats{Nodes: t.NumNodes, Leaves: t.NumLeaves, Depth: t.MaxDepth}
}

// impurity computes the configured impurity of a class histogram with n
// total rows.
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

// classTotals extracts a node's class histogram from its CC table. The
// middleware counts the class column itself as a pseudo-attribute, so the
// histogram is available even when no predictor attributes remain.
func classTotals(t *cc.Table, classIdx, classCard int) []int64 {
	out := make([]int64, classCard)
	for c := 0; c < classCard; c++ {
		out[c] = t.Count(classIdx, data.Value(c), data.Value(c))
	}
	return out
}

// majority returns the majority class (lowest index on ties) and whether
// the histogram is pure.
func majority(counts []int64) (cls data.Value, pure bool) {
	best := 0
	var nonzero int
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
		if c > 0 {
			nonzero++
		}
	}
	return data.Value(best), nonzero <= 1
}

// decision is the outcome of scoring one node.
type decision struct {
	leaf bool
	attr int
	val  data.Value
	vals []data.Value // multiway
	gain float64
}

const gainEps = 1e-12

// decide scores all candidate partitions of a node from its CC table and
// returns either a split or a leaf decision. It is deterministic: ties break
// toward the lower attribute index and then the lower value.
func decide(t *cc.Table, attrs []int, classCounts []int64, rows int64, depth int, opt Options) decision {
	if _, pure := majority(classCounts); pure {
		return decision{leaf: true}
	}
	if rows < opt.minRows() || len(attrs) == 0 {
		return decision{leaf: true}
	}
	if opt.MaxDepth > 0 && depth >= opt.MaxDepth {
		return decision{leaf: true}
	}
	if opt.probeOnly {
		// Whether a split exists needs the CC table; the caller will
		// request one.
		return decision{leaf: false}
	}
	h0 := impurity(opt.Measure, classCounts, rows)
	// One candidate's class vector and its complement, refilled per candidate.
	vec, rest := make([]int64, len(classCounts)), make([]int64, len(classCounts))

	// Any non-degenerate split qualifies (gain can be exactly zero); ties
	// and the first maximum break toward the lowest attribute and value
	// because candidates are visited in order.
	best := decision{leaf: true, gain: -1}
	for _, a := range attrs {
		if t.Card(a) < 2 {
			continue // constant attribute at this node
		}
		vals := t.Values(a)
		if opt.Split == MultiwaySplit {
			var rem, splitInfo float64
			for _, v := range vals {
				nv := sum(t.ClassVector(a, v, vec))
				rem += float64(nv) / float64(rows) * impurity(opt.Measure, vec, nv)
				p := float64(nv) / float64(rows)
				splitInfo -= p * math.Log2(p)
			}
			gain := h0 - rem
			if opt.Measure == GainRatio && splitInfo > 0 {
				gain /= splitInfo
			}
			if gain > best.gain+gainEps {
				best = decision{attr: a, vals: vals, gain: gain}
			}
			continue
		}
		// Binary splits: A = v versus A <> v for every observed v.
		for _, v := range vals {
			n1 := sum(t.ClassVector(a, v, vec))
			n2 := rows - n1
			if n1 == 0 || n2 == 0 {
				continue
			}
			for i := range rest {
				rest[i] = classCounts[i] - vec[i]
			}
			rem := float64(n1)/float64(rows)*impurity(opt.Measure, vec, n1) +
				float64(n2)/float64(rows)*impurity(opt.Measure, rest, n2)
			gain := h0 - rem
			if opt.Measure == GainRatio {
				p1 := float64(n1) / float64(rows)
				si := -(p1*math.Log2(p1) + (1-p1)*math.Log2(1-p1))
				if si > 0 {
					gain /= si
				}
			}
			if gain > best.gain+gainEps {
				best = decision{attr: a, val: v, gain: gain}
			}
		}
	}
	return best
}

func sum(v []int64) int64 {
	var n int64
	for _, x := range v {
		n += x
	}
	return n
}

// removeAttr returns attrs without a (a fresh slice).
func removeAttr(attrs []int, a int) []int {
	out := make([]int, 0, len(attrs)-1)
	for _, x := range attrs {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

// childSpec describes one child produced by applying a decision to a node.
type childSpec struct {
	cond        predicate.Cond
	attrs       []int
	rows        int64
	classCounts []int64
}

// expand computes the children implied by a split decision, using only the
// parent's CC table (the estimator exactness of §4.2.1: "the data size of an
// active node can be calculated precisely from the count table of its
// parent" — and so can its class histogram).
func expand(t *cc.Table, n *Node, dec decision, classCard int) []childSpec {
	if dec.leaf {
		return nil
	}
	a := dec.attr
	if len(dec.vals) > 0 { // multiway
		specs := make([]childSpec, 0, len(dec.vals))
		sub := removeAttr(n.Attrs, a)
		for _, v := range dec.vals {
			vec := t.ClassVector(a, v, make([]int64, classCard))
			specs = append(specs, childSpec{
				cond:        predicate.Cond{Attr: a, Op: predicate.Eq, Val: v},
				attrs:       sub,
				rows:        sum(vec),
				classCounts: vec,
			})
		}
		return specs
	}
	// Binary: A = v child drops A; A <> v keeps A unless only one other
	// value remains.
	vec := t.ClassVector(a, dec.val, make([]int64, classCard))
	n1 := sum(vec)
	rest := make([]int64, classCard)
	for i := range rest {
		rest[i] = n.ClassCounts[i] - vec[i]
	}
	eqAttrs := removeAttr(n.Attrs, a)
	neAttrs := n.Attrs
	if t.Card(a) <= 2 {
		neAttrs = eqAttrs
	}
	return []childSpec{
		{cond: predicate.Cond{Attr: a, Op: predicate.Eq, Val: dec.val}, attrs: eqAttrs, rows: n1, classCounts: vec},
		{cond: predicate.Cond{Attr: a, Op: predicate.Ne, Val: dec.val}, attrs: append([]int(nil), neAttrs...), rows: n.Rows - n1, classCounts: rest},
	}
}

// allAttrs returns [0..m).
func allAttrs(s *data.Schema) []int {
	attrs := make([]int, s.NumAttrs())
	for i := range attrs {
		attrs[i] = i
	}
	return attrs
}

// finalize computes tree statistics.
func finalize(t *Tree) *Tree {
	t.Walk(func(n *Node) {
		t.NumNodes++
		if n.Leaf {
			t.NumLeaves++
		}
		if n.Depth > t.MaxDepth {
			t.MaxDepth = n.Depth
		}
	})
	return t
}

// Equal reports whether two trees have identical structure, splits and leaf
// labels. Used by the invariance tests (middleware tree == in-memory tree).
func Equal(a, b *Tree) bool { return nodeEqual(a.Root, b.Root) }

func nodeEqual(a, b *Node) bool {
	if a.Leaf != b.Leaf || a.Rows != b.Rows || a.Class != b.Class {
		return false
	}
	if a.Leaf {
		return true
	}
	if a.SplitAttr != b.SplitAttr || a.Multiway != b.Multiway || len(a.Children) != len(b.Children) {
		return false
	}
	if !a.Multiway && a.SplitVal != b.SplitVal {
		return false
	}
	for i := range a.Children {
		if !nodeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Rules renders the tree's leaves as decision rules (§2.1: "the leaves,
// represented as decision rules, are more easily understood by domain
// experts").
func (t *Tree) Rules() []string {
	var rules []string
	t.Walk(func(n *Node) {
		if !n.Leaf {
			return
		}
		cond := "true"
		if len(n.Path) > 0 {
			cond = n.Path.SQL(t.Schema)
		}
		total := sum(n.ClassCounts)
		var pure float64
		if total > 0 {
			pure = float64(n.ClassCounts[n.Class]) / float64(total)
		}
		rules = append(rules, fmt.Sprintf("IF %s THEN %s = %d  (n=%d, purity=%.2f)",
			cond, t.Schema.Class.Name, n.Class, total, pure))
	})
	sort.Strings(rules)
	return rules
}
