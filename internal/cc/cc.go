// Package cc implements the counts ("CC") tables of §2.2 of the paper: for
// one tree node, the co-occurrence count of every (attribute, value, class)
// combination present in the node's data. The CC table is the only
// information a sufficient-statistics-driven classifier needs about the data
// (Observation 1), and it is typically much smaller than the data and does
// not grow with the number of records (Observation 2).
//
// §5 of the paper stores counts tables as binary search trees keyed by
// (attribute, value, class), and the cost model still charges that probe
// (sim.Costs.CCBump per counted row, CCFoldEntry per cell of a block's fold
// bound, min(rows, values × classes) — charged by the callers per block,
// whether a histogram folds after every block or once per row group, never by
// this package). The in-memory structure is flat:
// per attribute, the sorted distinct values present and, contiguous with them,
// one class-count vector per value, indexed by the class's rank among the
// table's sorted distinct classes. Counting a cell is a binary search over one
// attribute's few values plus an increment (Fold's sorted dictionaries let
// it walk them instead), so its cost depends neither on the table's size nor
// on insertion order; Values, Card, ClassVector, VectorAt and Walk read the
// arrays in key order; Merge and Clone are vector adds and copies.
//
// Rows and columns are indexed by rank, not by raw code: a CSV column that
// passes numeric codes through may hold {0, 1000000}, and a grid indexed by
// value would reserve megabytes per node for it. The price is that a value
// (or class) seen for the first time shifts the vectors behind it — O(card)
// once per distinct value, nothing per row after that.
//
// Two footprints, kept apart on purpose. Bytes() is the model: distinct cells
// × EntryBytes, the figure the middleware's scheduler budgets and sheds on,
// unchanged from the search-tree representation. The real footprint is 8 bytes
// per (value, class) cell — absent combinations included — plus 4 per value,
// reserved on the first Add from the cardinalities the caller knows
// (NewSized), and is well below the model for every table the experiments
// build. The arrays outlive the node: the middleware that owns a table holds it
// once its node is closed until a batch has counted the node's children — that
// batch may turn it into one child's table (Derive) — then empties it (Reset)
// and counts a later node into the same storage, so a build's steady state
// reserves nothing new.
package cc

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/data"
)

// Key identifies one counts-table entry: attribute index, attribute value,
// class value. Walk visits entries in (Attr, Val, Class) order.
type Key struct {
	Attr  int
	Val   data.Value
	Class data.Value
}

// EntryBytes is the accounted in-memory footprint of one counts-table entry
// (key + count + two child pointers of the paper's search tree), used by the
// middleware's memory budgeting. It is a model constant, independent of how
// the table is laid out in this process.
const EntryBytes = 40

// maxReserve bounds what the first Add reserves per attribute (value rows)
// and per row (class cells) whatever the size hint says; a column or class
// set that outgrows its reservation doubles.
const maxReserve = 16

// column holds one attribute's counts: the sorted distinct values present and
// one stride-wide class-count vector per value, in the same order.
type column struct {
	vals   []data.Value
	counts []int64 // len(vals) * Table.stride
}

// Table is one node's counts table. The zero value is an empty table ready
// for use.
type Table struct {
	cols    []column     // indexed by attribute
	classes []data.Value // sorted distinct classes; a class's rank is its cell in every vector
	stride  int          // cells per vector, >= len(classes); 0 until the first Add
	entries int
	rows    int64

	// Size hint of NewSized or Reset, consumed by the first Add.
	hintAttrs, hintCards []int
	hintClasses          int

	// The largest storage reserve has carved the columns from; Reset keeps it.
	valBuf   []data.Value
	countBuf []int64
}

// New returns an empty counts table.
func New() *Table { return &Table{} }

// NewSized returns an empty counts table that knows what it is about to
// count: the attributes attrs, where column a holds at most cards[a] distinct
// values, and at most classes class values. Nothing is allocated until the
// first Add, which then reserves every listed attribute's vectors at once (up
// to maxReserve rows and cells each) instead of growing them from empty. The
// hint is advisory — attributes, values and classes beyond it are counted
// like any other — and both slices are read, not retained past that Add.
func NewSized(attrs, cards []int, classes int) *Table {
	return &Table{hintAttrs: attrs, hintCards: cards, hintClasses: classes}
}

// Reset empties t and gives it a new size hint, as NewSized would, but keeps
// its arrays: the next first Add carves the columns from them again and
// allocates only when the hint needs more than t has ever reserved.
func (t *Table) Reset(attrs, cards []int, classes int) {
	*t = Table{cols: t.cols[:0], hintAttrs: attrs, hintCards: cards, hintClasses: classes,
		valBuf: t.valBuf, countBuf: t.countBuf}
}

// reserve readies the table's storage on its first Add. A row's cells are
// zeroed when its value is inserted, so reused storage needs no clearing.
func (t *Table) reserve() {
	t.stride = min(max(t.hintClasses, 2), maxReserve)
	ncols, nrows := 0, 0
	for _, a := range t.hintAttrs {
		ncols = max(ncols, a+1)
		nrows += min(t.hintCards[a], maxReserve)
	}
	t.cols = append(t.cols[:0], make([]column, ncols)...)
	t.valBuf = slices.Grow(t.valBuf[:0], nrows+t.stride)
	t.countBuf = slices.Grow(t.countBuf[:0], nrows*t.stride)
	vals, counts := t.valBuf[:nrows+t.stride], t.countBuf[:nrows*t.stride]
	t.classes = vals[nrows:nrows:len(vals)]
	off := 0
	for _, a := range t.hintAttrs {
		n := min(t.hintCards[a], maxReserve)
		c := &t.cols[a]
		c.vals = vals[off : off : off+n]
		c.counts = counts[off*t.stride : off*t.stride : (off+n)*t.stride]
		off += n
	}
	t.hintAttrs, t.hintCards = nil, nil
}

// find returns v's index in the sorted distinct s and whether it is there; if
// not, the index is where v belongs.
func find(s []data.Value, v data.Value) (int, bool) {
	// A set holding every code 0..n-1 — most attributes at most nodes, and
	// the classes — has each value at its own index: one predictable probe,
	// no search.
	if uint(v) < uint(len(s)) && s[v] == v {
		return int(v), true
	}
	return slices.BinarySearch(s, v)
}

// classRank returns class's cell index, making room for it if it is new.
func (t *Table) classRank(class data.Value) int {
	if t.stride == 0 {
		t.reserve()
	}
	ci, ok := find(t.classes, class)
	if !ok {
		t.insertClass(ci, class)
	}
	return ci
}

// insertClass opens cell ci of every vector for a class seen for the first
// time: in place while the stride has room, into doubled vectors otherwise.
func (t *Table) insertClass(ci int, class data.Value) {
	n, old := len(t.classes), t.stride
	if n == old {
		t.stride = 2 * old
	}
	for a := range t.cols {
		c := &t.cols[a]
		dst := c.counts
		if t.stride != old {
			dst = make([]int64, len(c.vals)*t.stride, cap(c.vals)*t.stride)
		}
		for r := range c.vals {
			src, row := c.counts[r*old:r*old+n], dst[r*t.stride:(r+1)*t.stride]
			copy(row[ci+1:], src[ci:])
			copy(row, src[:ci])
			row[ci] = 0
		}
		c.counts = dst
	}
	t.classes = append(t.classes, 0)
	copy(t.classes[ci+1:], t.classes[ci:])
	t.classes[ci] = class
}

// col returns attribute attr's column.
func (t *Table) col(attr int) *column {
	if attr >= len(t.cols) {
		t.cols = append(t.cols, make([]column, attr+1-len(t.cols))...)
	}
	return &t.cols[attr]
}

// rank returns val's row index in c, inserting a zero vector if it is new.
func (t *Table) rank(c *column, val data.Value) int {
	i, ok := find(c.vals, val)
	if !ok {
		t.insertValue(c, i, val)
	}
	return i
}

// insertValue opens row i of c for a value seen for the first time, shifting
// the vectors behind it.
func (t *Table) insertValue(c *column, i int, val data.Value) {
	n, stride := len(c.vals), t.stride
	c.vals = append(c.vals, 0)
	copy(c.vals[i+1:], c.vals[i:n])
	c.vals[i] = val
	c.counts = append(c.counts, make([]int64, stride)...)
	copy(c.counts[(i+1)*stride:], c.counts[i*stride:n*stride])
	clear(c.counts[i*stride : (i+1)*stride])
}

// Entries returns the number of distinct (attr, value, class) combinations.
func (t *Table) Entries() int { return t.entries }

// Bytes returns the accounted memory footprint of the table: the model the
// scheduler budgets on, not the bytes this process holds.
func (t *Table) Bytes() int64 { return int64(t.entries) * EntryBytes }

// Rows returns the number of data rows accumulated into the table via
// AddRow (the node's data size |n|).
func (t *Table) Rows() int64 { return t.rows }

// Add increments the count for (attr, val, class) by delta, inserting the
// entry if absent. It reports whether a new entry was created. Counts only
// grow: delta must be positive.
func (t *Table) Add(attr int, val, class data.Value, delta int64) bool {
	if delta <= 0 {
		panic(fmt.Sprintf("cc: Add with delta %d", delta))
	}
	ci := t.classRank(class)
	c := t.col(attr)
	r := t.rank(c, val) // before c.counts is read: a new value reallocates it
	p := &c.counts[r*t.stride+ci]
	created := *p == 0
	*p += delta
	if created {
		t.entries++
	}
	return created
}

// AddRow accumulates one data row over the attribute set attrs (indices into
// the row): for each listed attribute it increments the count of
// (attr, row[attr], row.Class()). It also advances the node row counter.
func (t *Table) AddRow(r data.Row, attrs []int) {
	ci := t.classRank(r.Class())
	for _, a := range attrs {
		c := t.col(a)
		i := t.rank(c, r[a]) // before c.counts is read: a new value reallocates it
		p := &c.counts[i*t.stride+ci]
		if *p == 0 {
			t.entries++
		}
		*p++
	}
	t.rows++
}

// SetRows overrides the row counter; used when a table is reconstructed from
// a server-side aggregation rather than row-at-a-time counting.
func (t *Table) SetRows(n int64) { t.rows = n }

// vector returns the class-count vector of (attr, val), nil if absent.
func (t *Table) vector(attr int, val data.Value) []int64 {
	if attr < 0 || attr >= len(t.cols) {
		return nil
	}
	c := &t.cols[attr]
	i, ok := find(c.vals, val)
	if !ok {
		return nil
	}
	return c.counts[i*t.stride : i*t.stride+len(t.classes)]
}

// Count returns the count for (attr, val, class), or 0 if absent.
func (t *Table) Count(attr int, val, class data.Value) int64 {
	vec := t.vector(attr, val)
	ci, ok := find(t.classes, class)
	if vec == nil || !ok {
		return 0
	}
	return vec[ci]
}

// Walk visits every entry in key order.
func (t *Table) Walk(fn func(Key, int64)) {
	for a := range t.cols {
		c := &t.cols[a]
		for r, v := range c.vals {
			for ci, n := range c.counts[r*t.stride : r*t.stride+len(t.classes)] {
				if n != 0 {
					fn(Key{Attr: a, Val: v, Class: t.classes[ci]}, n)
				}
			}
		}
	}
}

// ClassVector fills dst with the per-class counts for (attr, val), indexed by
// class value — the quantity a splitting measure scores — and returns it.
// len(dst) is the class cardinality; classes outside [0, len(dst)) are
// ignored.
func (t *Table) ClassVector(attr int, val data.Value, dst []int64) []int64 {
	return t.byClass(t.vector(attr, val), dst)
}

// VectorAt is ClassVector of attr's r-th smallest value present, which it
// returns: the split search reads its candidates rank by rank, 0 <= r <
// Card(attr), with no search and no copy of the values.
func (t *Table) VectorAt(attr, r int, dst []int64) data.Value {
	c := &t.cols[attr]
	t.byClass(c.counts[r*t.stride:r*t.stride+len(t.classes)], dst)
	return c.vals[r]
}

// byClass fills dst from vec, a vector indexed by class rank, by class value.
func (t *Table) byClass(vec, dst []int64) []int64 {
	clear(dst)
	for ci, n := range vec {
		if cl := t.classes[ci]; cl >= 0 && int(cl) < len(dst) {
			dst[cl] = n
		}
	}
	return dst
}

// Values returns the distinct values of attr present in the node's data, in
// increasing order (a copy). len(Values(attr)) is card(n, A) from §4.2.1.
func (t *Table) Values(attr int) []data.Value {
	if attr < 0 || attr >= len(t.cols) || len(t.cols[attr].vals) == 0 {
		return nil
	}
	return append([]data.Value(nil), t.cols[attr].vals...)
}

// Card returns card(n, A): the number of distinct values of attr in the
// node's data.
func (t *Table) Card(attr int) int {
	if attr < 0 || attr >= len(t.cols) {
		return 0
	}
	return len(t.cols[attr].vals)
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
// yields exactly the table a single sequential scan would have built, in
// whatever order they merge. Per value of o it is one rank lookup in t and
// one vector add. o is not modified.
func (t *Table) Merge(o *Table) {
	if o == nil {
		return
	}
	t.rows += o.rows
	if o.entries == 0 {
		return
	}
	// o's class cells in t: insert first (an insert moves later ranks), then
	// look up.
	for _, cl := range o.classes {
		t.classRank(cl)
	}
	var buf [maxReserve]int
	cells := buf[:0]
	for _, cl := range o.classes {
		ci, _ := find(t.classes, cl)
		cells = append(cells, ci)
	}
	for a := range o.cols {
		oc := &o.cols[a]
		if len(oc.vals) == 0 {
			continue
		}
		c := t.col(a)
		for r, v := range oc.vals {
			i := t.rank(c, v) // before c.counts is read: a new value reallocates it
			vec := c.counts[i*t.stride:]
			for ci, n := range oc.counts[r*o.stride : r*o.stride+len(o.classes)] {
				if n == 0 {
					continue
				}
				if vec[cells[ci]] == 0 {
					t.entries++
				}
				vec[cells[ci]] += n
			}
		}
	}
}

// Clone returns a deep copy of the table, its arrays sized to their content.
func (t *Table) Clone() *Table {
	c := &Table{stride: t.stride, entries: t.entries, rows: t.rows}
	c.classes = append([]data.Value(nil), t.classes...)
	c.cols = make([]column, len(t.cols))
	for a := range t.cols {
		c.cols[a].vals = append([]data.Value(nil), t.cols[a].vals...)
		c.cols[a].counts = append([]int64(nil), t.cols[a].counts...)
	}
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
		if seen := parent.classesSeen(childAttrs[0]); seen > 0 {
			classes = int64(seen)
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

// classesSeen counts the classes with at least one entry under attr.
func (t *Table) classesSeen(attr int) int {
	if attr < 0 || attr >= len(t.cols) {
		return 0
	}
	c, seen := &t.cols[attr], 0
	for ci := range t.classes {
		for r := range c.vals {
			if c.counts[r*t.stride+ci] != 0 {
				seen++
				break
			}
		}
	}
	return seen
}
