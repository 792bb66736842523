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
		b := weightedBounds(nil, weights, nparts)
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
		if b := weightedBounds(nil, tc.weights, tc.nparts); b != nil {
			t.Errorf("%s: got %v, want nil", tc.name, b)
		}
	}
	// A single part still tiles the whole range.
	if b := weightedBounds(nil, []int64{5, 5}, 1); len(b) != 2 || b[0] != 0 || b[1] != 2 {
		t.Errorf("single part: got %v", b)
	}
}

// TestGroupFilterEstimateSingleColumnExact: a filter on one column is estimated from
// the row groups' exact per-code counts (GroupFilter.Estimate summed over the
// groups, which is what GroupBounds weighs lanes by), so the estimate is the
// count — for values of any size (the per-page sketch this replaced capped at
// 64) and for a clustered column, whose groups outside the value's band
// contribute nothing.
func TestGroupFilterEstimateSingleColumnExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := data.NewDataset(data.NewSchema(2, 200, 2))
	counts := map[data.Value]int64{}
	const n = 9137 // three row groups
	for i := 0; i < n; i++ {
		v := data.Value(60 + rng.Intn(10)) // straddles the old sketch's cap
		counts[v]++
		ds.Append(data.Row{v, data.Value(i * 3 / n), data.Value(rng.Intn(2))})
	}
	srv, err := NewServer(newEngine(), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(f predicate.Filter) (total int64) {
		var gf GroupFilter
		for gi, cs := 0, srv.table.colstore; gi < cs.NumGroups(); gi++ {
			gf.Compile(cs.Group(gi), f)
			total += gf.Estimate()
		}
		return total
	}
	for v := data.Value(58); v < 72; v++ {
		if got := estimate(eqFilter(0, v)); got != counts[v] {
			t.Errorf("estimate(attr0=%d) = %d, want %d", v, got, counts[v])
		}
	}
	// Ne is the complement, also exact for one condition.
	ne := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Ne, Val: 61}})
	if got := estimate(ne); got != n-counts[61] {
		t.Errorf("estimate(attr0<>61) = %d, want %d", got, n-counts[61])
	}
	// The clustered column: a third of the rows, whichever groups hold them.
	if got, want := estimate(eqFilter(1, 1)), int64((2*n+2)/3-(n+2)/3); got != want {
		t.Errorf("estimate(attr1=1) = %d, want %d", got, want)
	}
	// Match-all returns every row; an empty filter returns none.
	if got := estimate(predicate.MatchAll()); got != n {
		t.Errorf("estimate(all) = %d, want %d", got, n)
	}
	if got := estimate(predicate.Or()); got != 0 {
		t.Errorf("estimate(empty) = %d, want 0", got)
	}
}
