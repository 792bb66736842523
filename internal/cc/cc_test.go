package cc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/data"
)

func TestAddAndCount(t *testing.T) {
	tb := New()
	if !tb.Add(0, 1, 2, 3) {
		t.Error("first Add should create an entry")
	}
	if tb.Add(0, 1, 2, 2) {
		t.Error("second Add to the same key should not create an entry")
	}
	if got := tb.Count(0, 1, 2); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := tb.Count(0, 1, 3); got != 0 {
		t.Errorf("absent Count = %d, want 0", got)
	}
	if tb.Entries() != 1 || tb.Bytes() != EntryBytes {
		t.Errorf("entries=%d bytes=%d", tb.Entries(), tb.Bytes())
	}
}

func TestAddRowCountsAllAttrs(t *testing.T) {
	tb := New()
	row := data.Row{2, 0, 1, 1} // attrs 0..2, class 1 at index 3
	tb.AddRow(row, []int{0, 1, 2, 3})
	if tb.Rows() != 1 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	for _, c := range []struct {
		attr int
		val  data.Value
	}{{0, 2}, {1, 0}, {2, 1}, {3, 1}} {
		if got := tb.Count(c.attr, c.val, 1); got != 1 {
			t.Errorf("Count(%d,%d,1) = %d, want 1", c.attr, c.val, got)
		}
	}
}

func buildRandom(n int, seed int64) (*data.Dataset, *Table) {
	rng := rand.New(rand.NewSource(seed))
	s := data.NewSchema(4, 3, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		ds.Append(data.Row{
			data.Value(rng.Intn(3)), data.Value(rng.Intn(3)),
			data.Value(rng.Intn(3)), data.Value(rng.Intn(3)),
			data.Value(rng.Intn(2)),
		})
	}
	return ds, FromDataset(ds, []int{0, 1, 2, 3, 4}, nil)
}

// TestAttrTotalsEqualRows: the central consistency invariant — for every
// counted attribute, the counts sum to the number of rows.
func TestAttrTotalsEqualRows(t *testing.T) {
	ds, tb := buildRandom(500, 1)
	for a := 0; a <= 4; a++ {
		var sum int64
		tb.Walk(func(k Key, c int64) {
			if k.Attr == a {
				sum += c
			}
		})
		if sum != int64(ds.N()) {
			t.Errorf("attr %d sums to %d, want %d", a, sum, ds.N())
		}
	}
}

func TestClassVectorAndTotals(t *testing.T) {
	ds, tb := buildRandom(300, 2)
	classCard := 2
	// ClassVector(a, v) must equal the direct count.
	for a := 0; a < 4; a++ {
		for v := data.Value(0); v < 3; v++ {
			vec := tb.ClassVector(a, v, make([]int64, classCard))
			for cls := data.Value(0); cls < 2; cls++ {
				var want int64
				for _, r := range ds.Rows {
					if r[a] == v && r.Class() == cls {
						want++
					}
				}
				if vec[cls] != want {
					t.Fatalf("ClassVector(%d,%d)[%d] = %d, want %d", a, v, cls, vec[cls], want)
				}
			}
		}
	}
	// Every attribute's class vectors sum to the node's class histogram:
	// the package's central consistency invariant.
	hist := make([]int64, classCard)
	for _, r := range ds.Rows {
		hist[r.Class()]++
	}
	for a := 0; a < 4; a++ {
		totals := make([]int64, classCard)
		for _, v := range tb.Values(a) {
			for cls, n := range tb.ClassVector(a, v, make([]int64, classCard)) {
				totals[cls] += n
			}
		}
		if !reflect.DeepEqual(totals, hist) {
			t.Errorf("attr %d class totals = %v, want %v", a, totals, hist)
		}
	}
}

func TestValuesCardAttrs(t *testing.T) {
	tb := New()
	tb.Add(1, 5, 0, 1)
	tb.Add(1, 2, 0, 1)
	tb.Add(1, 2, 1, 1)
	tb.Add(3, 0, 0, 1)
	if got := tb.Values(1); !reflect.DeepEqual(got, []data.Value{2, 5}) {
		t.Errorf("Values(1) = %v", got)
	}
	if tb.Card(1) != 2 || tb.Card(3) != 1 || tb.Card(0) != 0 {
		t.Errorf("cards = %d %d %d", tb.Card(1), tb.Card(3), tb.Card(0))
	}
	if got := tb.Attrs(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("Attrs = %v", got)
	}
}

func TestValueTotal(t *testing.T) {
	ds, tb := buildRandom(400, 3)
	for v := data.Value(0); v < 3; v++ {
		var want int64
		for _, r := range ds.Rows {
			if r[2] == v {
				want++
			}
		}
		// The exact child size |n_i| read off the parent CC table (§4.2.1).
		vec := tb.ClassVector(2, v, make([]int64, 2))
		if got := vec[0] + vec[1]; got != want {
			t.Errorf("rows with attr 2 = %d: %d, want %d", v, got, want)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	_, a := buildRandom(200, 4)
	_, b := buildRandom(200, 4)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("identical builds not Equal")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone not Equal")
	}
	c.Add(0, 0, 0, 1)
	if a.Equal(c) {
		t.Error("modified clone still Equal")
	}
	_, d := buildRandom(200, 5)
	if a.Equal(d) {
		t.Error("different datasets Equal")
	}
}

func TestWalkOrderSorted(t *testing.T) {
	_, tb := buildRandom(300, 6)
	var walked []Key
	tb.Walk(func(k Key, _ int64) { walked = append(walked, k) })
	if len(walked) != tb.Entries() {
		t.Errorf("walked %d keys of %d entries", len(walked), tb.Entries())
	}
	if !sort.SliceIsSorted(walked, func(i, j int) bool { return walked[i].less(walked[j]) }) {
		t.Error("walk order not sorted")
	}
}

func TestFromDatasetWithPredicate(t *testing.T) {
	ds, _ := buildRandom(300, 7)
	pred := func(r data.Row) bool { return r[0] == 1 }
	tb := FromDataset(ds, []int{1, 4}, pred)
	var want int64
	for _, r := range ds.Rows {
		if pred(r) {
			want++
		}
	}
	if tb.Rows() != want {
		t.Errorf("Rows = %d, want %d", tb.Rows(), want)
	}
	// Attribute 0 was not counted.
	if tb.Card(0) != 0 {
		t.Error("uncounted attribute present")
	}
}

func TestSetRows(t *testing.T) {
	tb := New()
	tb.SetRows(42)
	if tb.Rows() != 42 {
		t.Error("SetRows")
	}
}

func TestStringRendersEntries(t *testing.T) {
	tb := New()
	tb.Add(0, 1, 0, 2)
	if got := tb.String(); got != "cc{rows=0 entries=1 (0,1,0)=2}" {
		t.Errorf("String = %q", got)
	}
}

func TestEstimateEntries(t *testing.T) {
	// Parent: 100 rows, attrs {0,1} with cards 4 and 2, 3 classes seen.
	parent := New()
	for v := data.Value(0); v < 4; v++ {
		for c := data.Value(0); c < 3; c++ {
			parent.Add(0, v, c, 2)
		}
	}
	for v := data.Value(0); v < 2; v++ {
		for c := data.Value(0); c < 3; c++ {
			parent.Add(1, v, c, 2)
		}
	}
	parent.SetRows(100)

	// Child with half the rows keeping both attrs: ratio 0.5 of
	// (4+2) * 3 classes = 9.
	est := EstimateEntries(parent, []int{0, 1}, 50, 100, 3)
	if est != 9 {
		t.Errorf("est = %d, want 9", est)
	}
	// Dropping attr 0: 0.5 * 2 * 3 = 3.
	if est := EstimateEntries(parent, []int{1}, 50, 100, 3); est != 3 {
		t.Errorf("est = %d, want 3", est)
	}
	// Zero rows clamps to len(attrs).
	if est := EstimateEntries(parent, []int{0, 1}, 0, 100, 3); est != 2 {
		t.Errorf("zero-row est = %d", est)
	}
	// Tiny ratio clamps to at least one entry per attribute.
	if est := EstimateEntries(parent, []int{0, 1}, 1, 1000000, 3); est < 2 {
		t.Errorf("clamped est = %d", est)
	}
}

// TestEstimateIsDeterministicAndMonotone: Est_cc grows with child size.
func TestEstimateIsDeterministicAndMonotone(t *testing.T) {
	_, parent := buildRandom(500, 8)
	attrs := []int{0, 1, 2, 3}
	prev := int64(0)
	for _, rows := range []int64{10, 50, 100, 250, 500} {
		est := EstimateEntries(parent, attrs, rows, 500, 2)
		if est < prev {
			t.Errorf("estimate not monotone: %d rows -> %d (prev %d)", rows, est, prev)
		}
		if est2 := EstimateEntries(parent, attrs, rows, 500, 2); est2 != est {
			t.Error("estimate not deterministic")
		}
		prev = est
	}
}
