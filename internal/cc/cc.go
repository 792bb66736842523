// Package cc implements the counts ("CC") tables of §2.2 of the paper: for
// one tree node, the co-occurrence count of every (attribute, value, class)
// combination present in the node's data. The CC table is the only
// information a sufficient-statistics-driven classifier needs about the data
// (Observation 1), and it is typically much smaller than the data and does
// not grow with the number of records (Observation 2).
//
// Per §5 of the paper, counts tables are stored as binary search trees keyed
// by (attribute, value, class); "because of the way points are sorted in the
// tree, retrieving a vector of counts for the states of a class correlated
// with a particular attribute and its state is efficient". This package
// keeps that representation (a search tree over the composite key, with
// in-order traversal grouping all classes of one (attr,value) together) and
// layers the derived quantities the classifier and the middleware scheduler
// need: class vectors, per-attribute cardinalities card(n,Aj), and memory
// footprints for the scheduler's budget.
//
// The tree is a treap: each node carries a priority derived by hashing its
// key, and rotations keep the structure a max-heap over priorities. A plain
// unbalanced BST degenerates to a linked list under the monotone key
// sequences that sequential attribute codes produce (sorted inserts turned
// AddRow into O(n) per entry); hashing the key gives each node a
// deterministic pseudo-random priority, so the expected depth is O(log n)
// for every insertion order while the shape — and therefore every walk,
// count and accounting result — remains a pure function of the key set.
package cc

import (
	"fmt"
	"strings"

	"repro/internal/data"
)

// Key identifies one counts-table entry: attribute index, attribute value,
// class value.
type Key struct {
	Attr  int
	Val   data.Value
	Class data.Value
}

// less orders keys by (Attr, Val, Class); this ordering makes the class
// vector for a given (attr, value) contiguous in an in-order walk.
func (k Key) less(o Key) bool {
	if k.Attr != o.Attr {
		return k.Attr < o.Attr
	}
	if k.Val != o.Val {
		return k.Val < o.Val
	}
	return k.Class < o.Class
}

type node struct {
	key         Key
	prio        uint64 // hash-derived treap priority (max-heap)
	count       int64
	left, right *node
}

// priority derives the node's treap priority from its key: a splitmix64-style
// bit mix over the packed (attr, val, class) fields. Deterministic — two
// tables holding the same key set always have the same shape, on every host.
func (k Key) priority() uint64 {
	x := uint64(uint32(k.Attr))<<42 ^ uint64(uint32(k.Val))<<21 ^ uint64(uint32(k.Class))
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// EntryBytes is the accounted in-memory footprint of one counts-table entry
// (key + count + two child pointers), used by the middleware's memory
// budgeting. It is a model constant: the treap priority is derived storage
// and is deliberately not accounted, keeping budget arithmetic identical to
// the original BST representation.
const EntryBytes = 40

// Table is one node's counts table. The zero value is an empty table ready
// for use.
type Table struct {
	root    *node
	entries int
	rows    int64
}

// New returns an empty counts table.
func New() *Table { return &Table{} }

// Entries returns the number of distinct (attr, value, class) combinations.
func (t *Table) Entries() int { return t.entries }

// Bytes returns the accounted memory footprint of the table.
func (t *Table) Bytes() int64 { return int64(t.entries) * EntryBytes }

// Rows returns the number of data rows accumulated into the table via
// AddRow (the node's data size |n|).
func (t *Table) Rows() int64 { return t.rows }

// Add increments the count for (attr, val, class) by delta, inserting the
// entry if absent. It reports whether a new entry was created.
func (t *Table) Add(attr int, val, class data.Value, delta int64) bool {
	k := Key{Attr: attr, Val: val, Class: class}
	created := false
	t.root = insert(t.root, k, delta, &created)
	if created {
		t.entries++
	}
	return created
}

// insert descends to the key's BST position and rotates the new node up
// while its priority exceeds its parent's, restoring the treap heap order.
// Recursion depth is the tree height, O(log n) in expectation.
func insert(n *node, k Key, delta int64, created *bool) *node {
	if n == nil {
		*created = true
		return &node{key: k, prio: k.priority(), count: delta}
	}
	switch {
	case k.less(n.key):
		n.left = insert(n.left, k, delta, created)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	case n.key.less(k):
		n.right = insert(n.right, k, delta, created)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	default:
		n.count += delta
	}
	return n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// AddRow accumulates one data row over the attribute set attrs (indices into
// the row): for each listed attribute it increments the count of
// (attr, row[attr], row.Class()). It also advances the node row counter.
func (t *Table) AddRow(r data.Row, attrs []int) {
	cl := r.Class()
	for _, a := range attrs {
		t.Add(a, r[a], cl, 1)
	}
	t.rows++
}

// SetRows overrides the row counter; used when a table is reconstructed from
// a server-side aggregation rather than row-at-a-time counting.
func (t *Table) SetRows(n int64) { t.rows = n }

// Count returns the count for (attr, val, class), or 0 if absent.
func (t *Table) Count(attr int, val, class data.Value) int64 {
	k := Key{Attr: attr, Val: val, Class: class}
	n := t.root
	for n != nil {
		switch {
		case k.less(n.key):
			n = n.left
		case n.key.less(k):
			n = n.right
		default:
			return n.count
		}
	}
	return 0
}

// Walk visits every entry in key order.
func (t *Table) Walk(fn func(Key, int64)) { walk(t.root, fn) }

func walk(n *node, fn func(Key, int64)) {
	if n == nil {
		return
	}
	walk(n.left, fn)
	fn(n.key, n.count)
	walk(n.right, fn)
}

// ClassVector returns the per-class counts for (attr, val) as a dense slice
// of length classCard: the quantity a splitting measure scores.
func (t *Table) ClassVector(attr int, val data.Value, classCard int) []int64 {
	v := make([]int64, classCard)
	t.walkRange(attr, val, func(k Key, c int64) {
		if int(k.Class) < classCard {
			v[k.Class] += c
		}
	})
	return v
}

// walkRange visits entries with exactly the given (attr, val), pruning the
// BST by key order.
func (t *Table) walkRange(attr int, val data.Value, fn func(Key, int64)) {
	lo := Key{Attr: attr, Val: val, Class: -1 << 30}
	hi := Key{Attr: attr, Val: val, Class: 1 << 30}
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		if lo.less(n.key) {
			rec(n.left)
		}
		if lo.less(n.key) && n.key.less(hi) {
			fn(n.key, n.count)
		}
		if n.key.less(hi) {
			rec(n.right)
		}
	}
	rec(t.root)
}

// Values returns the distinct values of attr present in the node's data, in
// increasing order. len(Values(attr)) is card(n, A) from §4.2.1.
func (t *Table) Values(attr int) []data.Value {
	var vals []data.Value
	var last data.Value
	first := true
	t.Walk(func(k Key, _ int64) {
		if k.Attr != attr {
			return
		}
		if first || k.Val != last {
			vals = append(vals, k.Val)
			last = k.Val
			first = false
		}
	})
	return vals
}

// Card returns card(n, A): the number of distinct values of attr in the
// node's data.
func (t *Table) Card(attr int) int { return len(t.Values(attr)) }

// Attrs returns the attribute indices present in the table, increasing.
func (t *Table) Attrs() []int {
	var attrs []int
	last := -1
	t.Walk(func(k Key, _ int64) {
		if k.Attr != last {
			attrs = append(attrs, k.Attr)
			last = k.Attr
		}
	})
	return attrs
}

// Equal reports whether two tables hold exactly the same entries and row
// counts. Used by the property tests asserting that every build path
// (server scan, file scan, memory scan, SQL fallback) yields identical
// sufficient statistics.
func (t *Table) Equal(o *Table) bool {
	if t.entries != o.entries || t.rows != o.rows {
		return false
	}
	eq := true
	t.Walk(func(k Key, c int64) {
		if eq && o.Count(k.Attr, k.Val, k.Class) != c {
			eq = false
		}
	})
	return eq
}

// Merge folds every entry of o into t, summing per-key counts and the row
// totals. This is the shard-combining step of the parallel scan pipeline:
// each worker counts its disjoint data partition into a private shard table,
// and because counting is a commutative aggregation, merging the shards
// yields exactly the table a single sequential scan would have built. Entry
// and byte accounting are maintained by the underlying Add calls, and the
// treap shape of the result depends only on the merged key set, so the merge
// order does not affect any observable state. o is not modified.
func (t *Table) Merge(o *Table) {
	if o == nil {
		return
	}
	o.Walk(func(k Key, c int64) { t.Add(k.Attr, k.Val, k.Class, c) })
	t.rows += o.rows
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := New()
	c.rows = t.rows
	t.Walk(func(k Key, n int64) { c.Add(k.Attr, k.Val, k.Class, n) })
	return c
}

// String renders the table as the 4-column relation of §2.2:
// (attr, value, class, count) rows in key order.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cc{rows=%d entries=%d", t.rows, t.entries)
	t.Walk(func(k Key, c int64) {
		fmt.Fprintf(&b, " (%d,%d,%d)=%d", k.Attr, k.Val, k.Class, c)
	})
	b.WriteString("}")
	return b.String()
}

// FromDataset builds a CC table directly from in-memory rows matching pred
// over the attribute set attrs. pred may be nil to accept all rows. This is
// the unmetered reference builder used by tests and the in-memory reference
// classifier.
func FromDataset(d *data.Dataset, attrs []int, pred func(data.Row) bool) *Table {
	t := New()
	for _, r := range d.Rows {
		if pred == nil || pred(r) {
			t.AddRow(r, attrs)
		}
	}
	return t
}

// EstimateEntries implements the scheduler's count-table size estimate
// Est_cc(n) of §4.2.1: for a child n of parent p reached with data size
// childRows out of parentRows, the estimate is
//
//	(childRows / parentRows) * Σ_j card(p, A_j) * card(p, C)
//
// computed over the attributes that remain present in the child, assuming
// independence of the partitioning attribute from the remaining attributes.
// The estimate is deterministic and, because card(p, A_j) is exact, does not
// propagate estimation error down the tree. The result is clamped to at
// least one entry per remaining attribute.
func EstimateEntries(parent *Table, childAttrs []int, childRows, parentRows int64, classCard int) int64 {
	if parentRows <= 0 || childRows <= 0 {
		return int64(len(childAttrs))
	}
	var sum int64
	for _, a := range childAttrs {
		sum += int64(parent.Card(a))
	}
	classes := int64(1)
	// Number of distinct classes observed at the parent bounds the child's.
	if len(childAttrs) > 0 {
		seen := map[data.Value]bool{}
		parent.walkRange2(childAttrs[0], func(k Key, _ int64) { seen[k.Class] = true })
		if len(seen) > 0 {
			classes = int64(len(seen))
		}
	} else if classCard > 0 {
		classes = int64(classCard)
	}
	est := (childRows*sum*classes + parentRows - 1) / parentRows
	if min := int64(len(childAttrs)); est < min {
		est = min
	}
	return est
}

// walkRange2 visits entries for one attribute (all values).
func (t *Table) walkRange2(attr int, fn func(Key, int64)) {
	lo := Key{Attr: attr, Val: -1 << 30, Class: -1 << 30}
	hi := Key{Attr: attr, Val: 1 << 30, Class: 1 << 30}
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		if lo.less(n.key) {
			rec(n.left)
		}
		if lo.less(n.key) && n.key.less(hi) {
			fn(n.key, n.count)
		}
		if n.key.less(hi) {
			rec(n.right)
		}
	}
	rec(t.root)
}
