package cc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/data"
)

// The differential harness: a byte string is decoded into a sequence of table
// operations applied both to cc.Tables and to plain map[Key]int64 models, and
// every observable of each table is then checked against its model. The value
// and class palettes include data.Missing, codes far beyond the size hint
// (the hint reserves two values and two classes per attribute; maxReserve is
// 16) and the sparse passthrough code 1<<20.
var (
	opVals    = []data.Value{data.Missing, 0, 1, 2, 3, 5, 9, 40, 1000, 1 << 20}
	opClasses = []data.Value{data.Missing, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 1 << 20}
)

const (
	opTables = 3
	opAttrs  = 4 // attribute 3 is outside the size hint
)

// less orders keys by (Attr, Val, Class): the order Walk must visit them in.
func (k Key) less(o Key) bool {
	if k.Attr != o.Attr {
		return k.Attr < o.Attr
	}
	if k.Val != o.Val {
		return k.Val < o.Val
	}
	return k.Class < o.Class
}

type opModel struct {
	cells map[Key]int64
	rows  int64
}

func (m *opModel) clone() *opModel {
	c := &opModel{cells: make(map[Key]int64, len(m.cells)), rows: m.rows}
	for k, n := range m.cells {
		c.cells[k] = n
	}
	return c
}

type opReader struct{ b []byte }

func (r *opReader) next(n int) int {
	if len(r.b) == 0 {
		return 0
	}
	x := int(r.b[0])
	r.b = r.b[1:]
	return x % n
}

func runTableOps(t testing.TB, ops []byte) {
	hintAttrs, hintCards := []int{0, 1, 2}, []int{2, 2, 2}
	var tabs [opTables]*Table
	var refs [opTables]*opModel
	for i := range tabs {
		tabs[i], refs[i] = NewSized(hintAttrs, hintCards, 2), &opModel{cells: map[Key]int64{}}
	}
	r := &opReader{b: ops}
	var hist []int64
	for len(r.b) > 0 {
		op, i := r.next(8), r.next(opTables)
		tb, ref := tabs[i], refs[i]
		switch op {
		case 0, 1: // Add
			k := Key{Attr: r.next(opAttrs), Val: opVals[r.next(len(opVals))], Class: opClasses[r.next(len(opClasses))]}
			d := int64(r.next(9) + 1)
			if created, want := tb.Add(k.Attr, k.Val, k.Class, d), ref.cells[k] == 0; created != want {
				t.Fatalf("Add(%v) created = %v, want %v", k, created, want)
			}
			ref.cells[k] += d
		case 2: // AddRow over attributes 0..2, class last
			row := data.Row{opVals[r.next(len(opVals))], opVals[r.next(len(opVals))], opVals[r.next(len(opVals))],
				opClasses[r.next(len(opClasses))]}
			attrs := []int{0, 1, 2, 3}[:1+r.next(4)]
			tb.AddRow(row, attrs)
			for _, a := range attrs {
				ref.cells[Key{Attr: a, Val: row[a], Class: row.Class()}]++
			}
			ref.rows++
		case 3: // AddMany, its dictionaries gapped runs of the palettes
			dict := gapped(opVals, r.next(len(opVals)), r.next(256))
			classDict := gapped(opClasses, r.next(len(opClasses)), r.next(256))
			n := r.next(24)
			codes, classCodes := make([]uint16, n), make([]uint16, n)
			var sel []int32
			cells := map[Key]bool{}
			attr := r.next(opAttrs)
			for j := 0; j < n; j++ {
				codes[j], classCodes[j] = uint16(r.next(len(dict))), uint16(r.next(len(classDict)))
				if r.next(3) > 0 {
					sel = append(sel, int32(j))
					k := Key{Attr: attr, Val: dict[codes[j]], Class: classDict[classCodes[j]]}
					ref.cells[k]++
					cells[k] = true
				}
			}
			var folded int
			hist, folded = tb.AddMany(attr, dict, codes, classDict, classCodes, sel, hist)
			if folded != len(cells) {
				t.Fatalf("AddMany folded %d cells, want %d", folded, len(cells))
			}
			if bound := min(len(sel), len(dict)*len(classDict)); folded > bound {
				t.Fatalf("AddMany folded %d cells, past the charged bound %d", folded, bound)
			}
			for _, h := range hist {
				if h != 0 {
					t.Fatal("AddMany returned a dirty scratch buffer")
				}
			}
			tb.AddRows(int64(len(sel)))
			ref.rows += int64(len(sel))
		case 7: // Bump one to four blocks of the same dictionaries into one histogram, then Fold once
			dict := gapped(opVals, r.next(len(opVals)), r.next(256))
			classDict := gapped(opClasses, r.next(len(opClasses)), r.next(256))
			attr, nc := r.next(opAttrs), len(classDict)
			need := len(dict) * nc
			if cap(hist) < need {
				hist = make([]int64, need)
			}
			hist = hist[:need]
			cells, bound := map[Key]bool{}, 0
			for blocks := 1 + r.next(4); blocks > 0; blocks-- {
				n := r.next(24)
				codes, classCodes := make([]uint16, n), make([]uint16, n)
				var sel []int32
				for j := 0; j < n; j++ {
					codes[j], classCodes[j] = uint16(r.next(len(dict))), uint16(r.next(nc))
					if r.next(3) > 0 {
						sel = append(sel, int32(j))
						k := Key{Attr: attr, Val: dict[codes[j]], Class: classDict[classCodes[j]]}
						ref.cells[k]++
						cells[k] = true
					}
				}
				Bump(hist, codes, classCodes, nc, sel)
				bound += min(len(sel), need)
				tb.AddRows(int64(len(sel)))
				ref.rows += int64(len(sel))
			}
			if folded := tb.Fold(attr, dict, classDict, hist); folded != len(cells) || folded > bound {
				t.Fatalf("Fold folded %d cells, want %d, within the blocks' summed bound %d", folded, len(cells), bound)
			}
			for _, h := range hist {
				if h != 0 {
					t.Fatal("Fold left a dirty histogram")
				}
			}
		case 4: // Merge another table in
			if j := r.next(opTables); j != i {
				tb.Merge(tabs[j])
				for k, n := range refs[j].cells {
					ref.cells[k] += n
				}
				ref.rows += refs[j].rows
			}
		case 5: // replace by a clone of another table
			j := r.next(opTables)
			tabs[i], refs[i] = tabs[j].Clone(), refs[j].clone()
		case 6: // empty it under one of the hints, keeping its arrays
			h := resetHints[r.next(len(resetHints))]
			tb.Reset(h.attrs, h.cards, h.classes)
			refs[i] = &opModel{cells: map[Key]int64{}}
		}
	}
	for i, tb := range tabs {
		checkAgainstModel(t, tb, refs[i])
	}
}

// gapped returns the entries of palette[lo:lo+8] whose bit is set in mask, or
// palette[lo] alone when none is: a sorted dictionary, as a row group's is,
// with gaps. The table a fold goes into holds other draws, so one AddMany call
// meets classes and values that fall between two it has already folded: a new
// class moves the ranks the call has resolved, and a new value is inserted
// behind the column cursor's last row.
func gapped(palette []data.Value, lo, mask int) []data.Value {
	var s []data.Value
	for j := 0; j < 8 && lo+j < len(palette); j++ {
		if mask>>j&1 != 0 {
			s = append(s, palette[lo+j])
		}
	}
	if len(s) == 0 {
		return palette[lo : lo+1]
	}
	return s
}

// resetHints are the size hints the harness resets tables under: the one the
// tables start with, a larger one, one over an attribute outside it, and none
// (cards is indexed by attribute, like a schema's ColCards).
var resetHints = []struct {
	attrs, cards []int
	classes      int
}{
	{[]int{0, 1, 2}, []int{2, 2, 2}, 2},
	{[]int{0, 1, 2, 3}, []int{9, 40, 3, 20}, 18},
	{[]int{3}, []int{0, 0, 0, 1}, 1},
	{nil, nil, 0},
}

// checkAgainstModel compares every observable of tb with the map model.
func checkAgainstModel(t testing.TB, tb *Table, ref *opModel) {
	t.Helper()
	if tb.Entries() != len(ref.cells) || tb.Bytes() != int64(len(ref.cells))*EntryBytes || tb.Rows() != ref.rows {
		t.Fatalf("entries=%d bytes=%d rows=%d, model has %d cells, %d rows", tb.Entries(), tb.Bytes(), tb.Rows(), len(ref.cells), ref.rows)
	}
	want := make([]Key, 0, len(ref.cells))
	for k := range ref.cells {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
	var walked []Key
	tb.Walk(func(k Key, n int64) {
		if n != ref.cells[k] {
			t.Fatalf("Walk: %v = %d, model %d", k, n, ref.cells[k])
		}
		walked = append(walked, k)
	})
	if len(walked) != len(want) {
		t.Fatalf("Walk visited %d entries, model has %d", len(walked), len(want))
	}
	const classCard = 18 // opClasses' dense run; Missing and 1<<20 fall outside
	vec := make([]int64, classCard)
	var attrs []int
	for i, k := range want {
		if walked[i] != k {
			t.Fatalf("Walk position %d: %v, want %v (key order)", i, walked[i], k)
		}
		if got := tb.Count(k.Attr, k.Val, k.Class); got != ref.cells[k] {
			t.Fatalf("Count(%v) = %d, want %d", k, got, ref.cells[k])
		}
		if len(attrs) == 0 || attrs[len(attrs)-1] != k.Attr {
			attrs = append(attrs, k.Attr)
		}
	}
	if got := tb.Attrs(); len(got) != len(attrs) {
		t.Fatalf("Attrs = %v, want %v", got, attrs)
	}
	for _, a := range attrs {
		var vals []data.Value
		for _, k := range want {
			if k.Attr == a && (len(vals) == 0 || vals[len(vals)-1] != k.Val) {
				vals = append(vals, k.Val)
			}
		}
		got := tb.Values(a)
		if len(got) != len(vals) || tb.Card(a) != len(vals) {
			t.Fatalf("Values(%d) = %v (card %d), want %v", a, got, tb.Card(a), vals)
		}
		for i, v := range vals {
			if got[i] != v {
				t.Fatalf("Values(%d) = %v, want %v", a, got, vals)
			}
			tb.ClassVector(a, v, vec)
			for cl, n := range vec {
				if n != ref.cells[Key{Attr: a, Val: v, Class: data.Value(cl)}] {
					t.Fatalf("ClassVector(%d,%d)[%d] = %d", a, v, cl, n)
				}
			}
		}
	}
	if tb.Count(0, 77, 0) != 0 || tb.Count(99, 0, 0) != 0 || tb.Count(0, 0, 77) != 0 {
		t.Fatal("absent key has a count")
	}
}

// TestTableAgainstMap drives seeded random operation sequences — Add, AddRow,
// AddMany, several blocks' Bumps folded once, Merge and Clone interleaved
// over three tables — through the differential harness.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for seq := 0; seq < 400; seq++ {
		ops := make([]byte, rng.Intn(600))
		rng.Read(ops)
		runTableOps(t, ops)
	}
}

// FuzzTableOps fuzzes the same harness; ci.yml runs it for 15 s.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 19, 3, 2, 1, 1, 0, 2, 18, 3, 4, 1, 0, 5, 2, 1})
	f.Add([]byte{3, 0, 0, 0, 3, 11, 2, 0, 0, 1, 1, 1, 0, 2, 2, 1, 4, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, ops) })
}

// TestResetMatchesFresh: a table that was filled, then Reset under a new
// hint — smaller or larger than what it had reserved, or none — and driven
// through Add, AddRow, AddMany and Merge is indistinguishable from a NewSized
// table given the same hint and operations, and so are their clones.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for round := 0; round < 300; round++ {
		prev, h := resetHints[rng.Intn(len(resetHints))], resetHints[rng.Intn(len(resetHints))]
		other := New()
		driveOps(rand.New(rand.NewSource(rng.Int63())), other, nil, 15)
		reused := NewSized(prev.attrs, prev.cards, prev.classes)
		driveOps(rand.New(rand.NewSource(rng.Int63())), reused, other, rng.Intn(60))
		reused.Reset(h.attrs, h.cards, h.classes)
		fresh := NewSized(h.attrs, h.cards, h.classes)
		seed, n := rng.Int63(), rng.Intn(80)
		driveOps(rand.New(rand.NewSource(seed)), reused, other, n)
		driveOps(rand.New(rand.NewSource(seed)), fresh, other, n)
		sameTable(t, reused, fresh)
		sameTable(t, reused.Clone(), fresh.Clone())
	}
}

// driveOps applies n random operations to tb, drawn from rng over the
// harness's palettes; other (when non-nil) is what a Merge folds in.
func driveOps(rng *rand.Rand, tb, other *Table, n int) {
	var hist []int64
	for ; n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			tb.Add(rng.Intn(opAttrs), opVals[rng.Intn(len(opVals))], opClasses[rng.Intn(len(opClasses))], int64(1+rng.Intn(9)))
		case 1:
			row := data.Row{opVals[rng.Intn(len(opVals))], opVals[rng.Intn(len(opVals))], opVals[rng.Intn(len(opVals))],
				opClasses[rng.Intn(len(opClasses))]}
			tb.AddRow(row, []int{0, 1, 2, 3}[:1+rng.Intn(4)])
		case 2:
			dict := gapped(opVals, rng.Intn(len(opVals)), rng.Intn(256))
			classDict := gapped(opClasses, rng.Intn(len(opClasses)), rng.Intn(256))
			k := rng.Intn(24)
			codes, classCodes, sel := make([]uint16, k), make([]uint16, k), []int32{}
			for j := range codes {
				codes[j], classCodes[j] = uint16(rng.Intn(len(dict))), uint16(rng.Intn(len(classDict)))
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(j))
				}
			}
			hist, _ = tb.AddMany(rng.Intn(opAttrs), dict, codes, classDict, classCodes, sel, hist)
			tb.AddRows(int64(len(sel)))
		case 3:
			if other != nil {
				tb.Merge(other.Clone())
			}
		}
	}
}

// sameTable fails unless a and b agree on every observable.
func sameTable(t testing.TB, a, b *Table) {
	t.Helper()
	if a.Entries() != b.Entries() || a.Bytes() != b.Bytes() || a.Rows() != b.Rows() {
		t.Fatalf("entries/bytes/rows %d/%d/%d, fresh %d/%d/%d", a.Entries(), a.Bytes(), a.Rows(), b.Entries(), b.Bytes(), b.Rows())
	}
	if as, bs := a.String(), b.String(); as != bs { // Walk order, keys and counts
		t.Fatalf("walk\n%s\nfresh\n%s", as, bs)
	}
	const classCard = 18
	va, vb := make([]int64, classCard), make([]int64, classCard)
	if !slices.Equal(a.Attrs(), b.Attrs()) || !a.Equal(b) {
		t.Fatalf("attrs %v, fresh %v, or not Equal", a.Attrs(), b.Attrs())
	}
	for attr := range max(len(a.cols), len(b.cols), opAttrs+1) {
		vals := a.Values(attr)
		if a.Card(attr) != b.Card(attr) || !slices.Equal(vals, b.Values(attr)) {
			t.Fatalf("attr %d: values %v, fresh %v", attr, vals, b.Values(attr))
		}
		for _, v := range vals {
			if !slices.Equal(a.ClassVector(attr, v, va), b.ClassVector(attr, v, vb)) {
				t.Fatalf("ClassVector(%d, %d) = %v, fresh %v", attr, v, va, vb)
			}
		}
	}
}

// TestSparseCodes: a passthrough numeric column holding {0, 1<<20} costs two
// rows, not a million — tables are indexed by rank.
func TestSparseCodes(t *testing.T) {
	tb := NewSized([]int{0, 1}, []int{1<<20 + 1, 2}, 2)
	for i := 0; i < 1000; i++ {
		v := data.Value(0)
		if i%3 == 0 {
			v = 1 << 20
		}
		tb.AddRow(data.Row{v, data.Value(i % 2), data.Value(i % 2)}, []int{0, 1, 2})
	}
	if tb.Card(0) != 2 || tb.Count(0, 1<<20, 0)+tb.Count(0, 1<<20, 1) != 334 {
		t.Fatalf("sparse column miscounted: %v", tb)
	}
	if got := tb.realBytes(); got > 600 {
		t.Errorf("table over {0, 1<<20} reserves %d bytes, want a few hundred", got)
	}
	if tb.Bytes() != int64(tb.Entries())*EntryBytes {
		t.Errorf("accounted bytes %d for %d entries", tb.Bytes(), tb.Entries())
	}
}

// TestMergeMatchesSequential: building shard tables over disjoint row
// partitions and merging them must equal one sequential build — the
// correctness contract of the parallel scan pipeline.
func TestMergeMatchesSequential(t *testing.T) {
	ds, want := buildRandom(900, 11)
	attrs := []int{0, 1, 2, 3, 4}
	for _, nparts := range []int{2, 3, 4, 7} {
		shards := make([]*Table, nparts)
		for p := 0; p < nparts; p++ {
			shards[p] = New()
			lo := p * ds.N() / nparts
			hi := (p + 1) * ds.N() / nparts
			for _, r := range ds.Rows[lo:hi] {
				shards[p].AddRow(r, attrs)
			}
		}
		merged := shards[0]
		for _, sh := range shards[1:] {
			merged.Merge(sh)
		}
		if !merged.Equal(want) {
			t.Fatalf("nparts=%d: merged shards differ from sequential build", nparts)
		}
		if merged.Rows() != want.Rows() {
			t.Fatalf("nparts=%d: rows = %d, want %d", nparts, merged.Rows(), want.Rows())
		}
		if merged.Bytes() != want.Bytes() {
			t.Fatalf("nparts=%d: bytes = %d, want %d", nparts, merged.Bytes(), want.Bytes())
		}
	}
}

// TestMergeEmptyAndNil covers the degenerate merge inputs.
func TestMergeEmptyAndNil(t *testing.T) {
	tb := New()
	tb.Add(1, 2, 0, 5)
	tb.SetRows(3)
	tb.Merge(nil)
	tb.Merge(New())
	if tb.Entries() != 1 || tb.Rows() != 3 || tb.Count(1, 2, 0) != 5 {
		t.Errorf("merge of nil/empty changed the table: %v", tb)
	}
	empty := New()
	empty.Merge(tb)
	if !empty.Equal(tb) {
		t.Errorf("merge into empty: got %v, want %v", empty, tb)
	}
}

// realBytes returns the bytes the table's arrays actually reserve.
func (t *Table) realBytes() int64 {
	n := int64(cap(t.classes)) * 4
	for a := range t.cols {
		n += int64(cap(t.cols[a].vals))*4 + int64(cap(t.cols[a].counts))*8
	}
	return n
}

// Attrs returns the attribute indices present in the table, increasing.
func (t *Table) Attrs() []int {
	var attrs []int
	for a := range t.cols {
		if len(t.cols[a].vals) > 0 {
			attrs = append(attrs, a)
		}
	}
	return attrs
}
