package engine

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
)

// eqFilter is a one-condition equality filter on attr = val.
func eqFilter(attr int, val data.Value) predicate.Filter {
	return predicate.Or(predicate.Conj{{Attr: attr, Op: predicate.Eq, Val: val}})
}

func TestWeightedBoundsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		nparts := 1 + rng.Intn(16)
		weights := make([]int64, n)
		var total int64
		for i := range weights {
			// Heavily skewed weights: mostly small, occasionally huge.
			w := int64(rng.Intn(10))
			if rng.Intn(8) == 0 {
				w = int64(1000 + rng.Intn(100000))
			}
			weights[i] = w
			total += w
		}
		b := WeightedBounds(weights, nparts)
		if total == 0 {
			if b != nil {
				t.Fatalf("trial %d: non-nil bounds for zero total weight", trial)
			}
			continue
		}
		if len(b) != nparts+1 {
			t.Fatalf("trial %d: len(bounds) = %d, want %d", trial, len(b), nparts+1)
		}
		if b[0] != 0 || b[nparts] != n {
			t.Fatalf("trial %d: bounds %v do not tile [0, %d]", trial, b, n)
		}
		for i := 1; i <= nparts; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("trial %d: bounds not monotone: %v", trial, b)
			}
		}
		// Balance: no span's weight exceeds an equal share by more than the
		// largest single weight (the granularity limit of contiguous splits).
		var maxW int64
		for _, w := range weights {
			if w > maxW {
				maxW = w
			}
		}
		share := total / int64(nparts)
		for i := 0; i < nparts; i++ {
			var span int64
			for _, w := range weights[b[i]:b[i+1]] {
				span += w
			}
			if span > share+2*maxW {
				t.Fatalf("trial %d: span %d weight %d far above share %d (max unit %d)",
					trial, i, span, share, maxW)
			}
		}
	}
}

func TestWeightedBoundsDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		weights []int64
		nparts  int
	}{
		{"no weights", nil, 4},
		{"nparts zero", []int64{1, 2}, 0},
		{"nparts negative", []int64{1, 2}, -1},
		{"zero total", []int64{0, 0, 0}, 2},
		{"negative weight", []int64{3, -1, 2}, 2},
	}
	for _, tc := range cases {
		if b := WeightedBounds(tc.weights, tc.nparts); b != nil {
			t.Errorf("%s: got %v, want nil", tc.name, b)
		}
	}
	// A single part still tiles the whole range.
	if b := WeightedBounds([]int64{5, 5}, 1); len(b) != 2 || b[0] != 0 || b[1] != 2 {
		t.Errorf("single part: got %v", b)
	}
}

func TestValueStatsSingleColumnExact(t *testing.T) {
	vs := NewValueStats(2)
	counts := map[data.Value]int64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 137; i++ {
		v := data.Value(rng.Intn(5))
		counts[v]++
		vs.NoteAt(i/10, data.Row{v, data.Value(rng.Intn(3))})
	}
	if got, want := len(vs.buckets), 14; got != want {
		t.Fatalf("%d buckets, want %d", got, want)
	}
	// Single-column equality estimates are exact: each bucket counts the
	// value directly, and the total is the sum of buckets.
	for v := data.Value(0); v < 6; v++ {
		if got := vs.EstimateMatch(eqFilter(0, v)); got != counts[v] {
			t.Errorf("EstimateMatch(attr0=%d) = %d, want %d", v, got, counts[v])
		}
	}
	// Ne is the complement, also exact for one condition.
	ne := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Ne, Val: 1}})
	if got := vs.EstimateMatch(ne); got != 137-counts[1] {
		t.Errorf("EstimateMatch(attr0<>1) = %d, want %d", got, 137-counts[1])
	}
	// Match-all returns every row; an empty filter returns none.
	if got := vs.EstimateMatch(predicate.MatchAll()); got != 137 {
		t.Errorf("EstimateMatch(all) = %d, want 137", got)
	}
	if got := vs.EstimateMatch(predicate.Or()); got != 0 {
		t.Errorf("EstimateMatch(empty) = %d, want 0", got)
	}
	// Hints per bucket never exceed the bucket's rows and sum to the total.
	hints := vs.BucketHints(eqFilter(0, 2))
	var sum int64
	for _, h := range hints {
		if h.Match > h.Rows {
			t.Fatalf("bucket hint match %d > rows %d", h.Match, h.Rows)
		}
		sum += h.Match
	}
	if sum != counts[2] {
		t.Errorf("bucket hint sum = %d, want %d", sum, counts[2])
	}
}

func TestValueStatsNilAndDisabled(t *testing.T) {
	var vs *ValueStats
	vs.NoteAt(3, data.Row{0}) // must not panic
	if vs.EstimateMatch(predicate.MatchAll()) != 0 {
		t.Fatal("nil stats not empty")
	}
	if vs.BucketHints(predicate.MatchAll()) != nil {
		t.Fatal("nil stats produced hints")
	}
	d := NewValueStats(1)
	d.NoteAt(-1, data.Row{1}) // no such bucket
	if len(d.buckets) != 0 {
		t.Fatal("NoteAt recorded a row in bucket -1")
	}
	d.NoteAt(2, data.Row{1})
	if rows := d.EstimateMatch(predicate.MatchAll()); len(d.buckets) != 3 || rows != 1 {
		t.Fatalf("NoteAt: buckets=%d rows=%d, want 3/1", len(d.buckets), rows)
	}
}

func TestValueStatsOverflowValues(t *testing.T) {
	vs := NewValueStats(1)
	for i := 0; i < 10; i++ {
		vs.NoteAt(0, data.Row{data.Value(statMaxValue + i)})
	}
	// Overflow values share one counter: any over-range value estimates the
	// full overflow population (a deliberate over-estimate, never under).
	if got := vs.EstimateMatch(eqFilter(0, statMaxValue+3)); got != 10 {
		t.Errorf("overflow estimate = %d, want 10", got)
	}
	if got := vs.EstimateMatch(eqFilter(0, 5)); got != 0 {
		t.Errorf("in-range estimate on overflow-only data = %d, want 0", got)
	}
}

// clusteredTestDataset lays rows out in `card` contiguous equal slabs of
// attribute 0 (the clustered-placement regime the hints exist to describe).
func clusteredTestDataset(n, card int) *data.Dataset {
	rng := rand.New(rand.NewSource(9))
	s := data.NewSchema(2, card, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		ds.Append(data.Row{
			data.Value(i * card / n), data.Value(rng.Intn(card)), data.Value(rng.Intn(2)),
		})
	}
	return ds
}

// TestTablePartitionHintsMatchHeap pins the Table-level wiring: stats buckets
// are heap pages, hints pad to the page count, and estimates for a clustered
// attribute concentrate on the pages actually holding the value.
func TestTablePartitionHintsMatchHeap(t *testing.T) {
	ds := clusteredTestDataset(900, 3)
	srv, err := NewServer(newEngine(), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	table := srv.table
	hints := table.PartitionHints(eqFilter(0, 1))
	if len(hints) != table.NumPages() {
		t.Fatalf("hints for %d pages, got %d entries", table.NumPages(), len(hints))
	}
	var rows, match int64
	for _, h := range hints {
		rows += h.Rows
		match += h.Match
	}
	if rows != 900 {
		t.Fatalf("hint rows total %d, want 900", rows)
	}
	if match != 300 {
		t.Fatalf("hint match total %d, want 300 (single-column estimates are exact)", match)
	}
	// Clustered placement: every matching row sits in the middle third of the
	// heap, so pages outside some contiguous band must estimate zero.
	first, last := -1, -1
	for i, h := range hints {
		if h.Match > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		t.Fatal("no page estimated any match")
	}
	for i, h := range hints {
		if i > first && i < last && h.Rows > 0 && h.Match == 0 {
			t.Fatalf("hole in clustered match band at page %d", i)
		}
	}
	if srv.EstimateMatch(eqFilter(0, 1)) != 300 {
		t.Fatal("server EstimateMatch disagrees with hints")
	}
	srv.SetSplitHints(false)
	if srv.EstimateMatch(eqFilter(0, 1)) != -1 {
		t.Fatal("EstimateMatch not -1 with hints disabled")
	}
	if srv.PageBounds(eqFilter(0, 1), 4, 0) != nil {
		t.Fatal("PageBounds not nil with hints disabled")
	}
}
