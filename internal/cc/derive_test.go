package cc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

// TestFoldCountWithinBound: the middleware charges CCFoldEntry per cell of a
// block's fold bound, min(len(sel), values × classes), on counted and derived
// nodes alike, because a derived node has no fold to count. A histogram that
// takes one to three blocks' bumps of the same dictionaries before it folds —
// the middleware folds once per row group where its budget cannot police —
// folds at most those blocks' bounds summed: the count Fold returns, so this
// test and FuzzTableOps can check the bound, over random dictionaries and
// selections of at most 64 cells and of more (tree data's 10 classes). The
// bound is met where one block's every row is a cell of its own or every cell
// is hit.
func TestFoldCountWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var hist []int64
	var small, large, tight, multi int
	for trial := 0; trial < 600; trial++ {
		nd, nc := 1+rng.Intn(40), 1+rng.Intn(10)
		if nd*nc <= 64 {
			small++
		} else {
			large++
		}
		dict, classDict := make([]data.Value, nd), make([]data.Value, nc)
		for v := range dict {
			dict[v] = data.Value(3 * v) // values need not be dense: cells are codes
		}
		for c := range classDict {
			classDict[c] = data.Value(c)
		}
		if cap(hist) < nd*nc {
			hist = make([]int64, nd*nc)
		}
		hist = hist[:nd*nc]
		blocks := 1 + rng.Intn(3)
		distinct := blocks == 1 && rng.Intn(3) == 0 // every selected row a cell of its own, where the dictionaries allow
		bound := 0
		for range blocks {
			n := rng.Intn(80)
			codes, classCodes := make([]uint16, n), make([]uint16, n)
			var sel []int32
			for i := range codes {
				codes[i], classCodes[i] = uint16(rng.Intn(nd)), uint16(rng.Intn(nc))
				if distinct {
					codes[i], classCodes[i] = uint16(i/nc%nd), uint16(i%nc)
				}
				if distinct || rng.Intn(4) > 0 {
					sel = append(sel, int32(i))
				}
			}
			Bump(hist, codes, classCodes, nc, sel)
			bound += min(len(sel), nd*nc)
		}
		folded := New().Fold(0, dict, classDict, hist)
		if folded > bound {
			t.Fatalf("%d values x %d classes, %d blocks: Fold folded %d cells, past the summed bound %d", nd, nc, blocks, folded, bound)
		}
		if distinct && folded != bound {
			t.Fatalf("%d values x %d classes, distinct rows: folded %d, want the bound %d", nd, nc, folded, bound)
		}
		if folded == bound {
			tight++
		}
		if blocks > 1 && folded > 0 {
			multi++
		}
		if slices.ContainsFunc(hist, func(n int64) bool { return n != 0 }) {
			t.Fatal("Fold left a dirty histogram")
		}
	}
	if small == 0 || large == 0 || tight == 0 || multi == 0 {
		t.Fatalf("%d trials of at most 64 cells, %d of more, %d at the bound, %d folds of several blocks: cover all four", small, large, tight, multi)
	}
}

// deriveCover notes which shapes checkDerive met.
type deriveCover struct {
	binary, multiway, keepsSplit, vanishedClass, vanishedValue bool
}

// checkDerive draws a node's rows — up to four attributes, each over values
// ending in the sparse code 1000000, up to ten classes — and a split of them
// as dtree grows one: binary on A = v, whose A = v child drops A and whose
// A <> v child keeps A unless A has two values, or multiway on every value of
// A. It counts the node and every child over the child's attributes plus the
// class column, as the middleware asks, and checks that each child's table
// derived from the node's and its siblings' matches its counted one in every
// observable.
func checkDerive(t testing.TB, next func(int) int, cover *deriveCover) {
	palette := []data.Value{0, 1, 2, 3, 4, 5, 1000000}
	nattrs := 1 + next(4)
	cards := make([]int, nattrs+1)
	for a := range nattrs {
		cards[a] = 2 + next(len(palette)-1)
	}
	nclasses := 2 + next(9)
	cards[nattrs] = nclasses
	rows := make([]data.Row, 1+next(60))
	for i := range rows {
		r := make(data.Row, nattrs+1)
		for a := range nattrs {
			r[a] = palette[len(palette)-cards[a]+next(cards[a])]
		}
		r[nattrs] = data.Value(next(nclasses))
		rows[i] = r
	}
	attrs := make([]int, nattrs+1)
	for a := range attrs {
		attrs[a] = a
	}
	count := func(attrs []int, keep func(data.Row) bool) *Table {
		tb := NewSized(attrs, cards, nclasses)
		for _, r := range rows {
			if keep(r) {
				tb.AddRow(r, attrs)
			}
		}
		return tb
	}
	node := count(attrs, func(data.Row) bool { return true })

	split := next(nattrs)
	present := node.Values(split)
	drop := slices.DeleteFunc(slices.Clone(attrs), func(a int) bool { return a == split })
	type child struct {
		attrs []int
		val   data.Value
		eq    bool
	}
	var children []child
	if len(present) > 1 && next(2) == 0 {
		cover.binary = true
		v := present[next(len(present))]
		ne := attrs
		if len(present) <= 2 {
			ne = drop
		} else {
			cover.keepsSplit = true
		}
		children = []child{{drop, v, true}, {ne, v, false}}
	} else {
		cover.multiway = true
		for _, v := range present {
			children = append(children, child{drop, v, true})
		}
	}
	counted := make([]*Table, len(children))
	for i, c := range children {
		counted[i] = count(c.attrs, func(r data.Row) bool { return (r[split] == c.val) == c.eq })
	}
	for i, c := range children {
		got := node.Clone()
		got.Derive(slices.Delete(slices.Clone(counted), i, i+1), c.attrs, split, c.val, c.eq)
		sameTable(t, got, counted[i])
		if node.Card(nattrs) > got.Card(nattrs) {
			cover.vanishedClass = true
		}
		for _, a := range drop[:len(drop)-1] {
			if node.Card(a) > got.Card(a) {
				cover.vanishedValue = true
			}
		}
	}
}

// TestDeriveMatchesCounted: over 3000 random nodes and splits, every child's
// derived table equals its counted one — binary splits with the A <> v child
// keeping A and dropping it, multiway splits, classes and values the child
// lacks, sparse codes.
func TestDeriveMatchesCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var cover deriveCover
	for range 3000 {
		checkDerive(t, rng.Intn, &cover)
	}
	if cover != (deriveCover{true, true, true, true, true}) {
		t.Fatalf("cases not met: %+v", cover)
	}
}

// FuzzDerive fuzzes the same check, each byte one draw; ci.yml runs it for 10 s.
func FuzzDerive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 5, 1, 4, 30, 1, 5, 2, 0, 6, 3, 1, 0, 2, 2, 4, 1, 0, 1, 0, 0, 1})
	f.Add([]byte{0, 5, 8, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1})
	f.Fuzz(func(t *testing.T, draws []byte) {
		r := &opReader{b: draws}
		checkDerive(t, r.next, &deriveCover{})
	})
}

// TestDeriveAllocatesNothing: the difference is taken in the node's own arrays.
func TestDeriveAllocatesNothing(t *testing.T) {
	attrs := []int{0, 1, 2, 3, 4}
	rows := benchRows(4096)
	node, sib := New(), New()
	for _, r := range rows {
		node.AddRow(r, attrs)
		if r[0] == 1 {
			sib.AddRow(r, attrs)
		}
	}
	nodes := make([]*Table, 0, 102)
	for range cap(nodes) {
		nodes = append(nodes, node.Clone())
	}
	sibs := []*Table{sib}
	if n := testing.AllocsPerRun(100, func() {
		tb := nodes[len(nodes)-1]
		nodes = nodes[:len(nodes)-1]
		tb.Derive(sibs, attrs, 0, 1, false)
	}); n != 0 {
		t.Fatalf("Derive made %v allocations", n)
	}
}

// TestDerivePanicsOnNonPartition: siblings holding rows the node lacks are
// refused, not turned into negative counts.
func TestDerivePanicsOnNonPartition(t *testing.T) {
	node, sib := New(), New()
	node.AddRow(data.Row{1, 0}, []int{0, 1})
	sib.AddRow(data.Row{1, 0}, []int{0, 1})
	sib.AddRow(data.Row{1, 0}, []int{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Derive of a non-partition did not panic")
		}
	}()
	node.Derive([]*Table{sib}, []int{0, 1}, 0, 0, true)
}
