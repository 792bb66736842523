package cc

import (
	"math/rand"
	"testing"

	"repro/internal/data"
)

// encodeColumn dictionary-encodes one column of rows: sorted distinct values
// plus a code per row, the same representation the columnar store produces.
func encodeColumn(rows []data.Row, col int) (dict []data.Value, codes []uint16) {
	seen := map[data.Value]int{}
	for _, r := range rows {
		if _, ok := seen[r[col]]; !ok {
			seen[r[col]] = 0
			dict = append(dict, r[col])
		}
	}
	// Sort the dictionary and assign codes by rank.
	for i := 1; i < len(dict); i++ {
		for j := i; j > 0 && dict[j] < dict[j-1]; j-- {
			dict[j], dict[j-1] = dict[j-1], dict[j]
		}
	}
	for i, v := range dict {
		seen[v] = i
	}
	codes = make([]uint16, len(rows))
	for i, r := range rows {
		codes[i] = uint16(seen[r[col]])
	}
	return dict, codes
}

// addManyOverRows drives AddMany exactly as the vectorized kernel does: one
// call per attribute over the block's selection vector, then one AddRows.
func addManyOverRows(t *Table, rows []data.Row, attrs []int, sel []int32, hist []int64) []int64 {
	classCol := len(rows[0]) - 1
	classDict, classCodes := encodeColumn(rows, classCol)
	for _, a := range attrs {
		dict, codes := encodeColumn(rows, a)
		hist, _ = t.AddMany(a, dict, codes, classDict, classCodes, sel, hist)
	}
	t.AddRows(int64(len(sel)))
	return hist
}

// TestAddManyFoldEquivalence asserts AddMany is fold-equivalent to the N
// sequential Add calls it batches: same entries, same counts, same row
// totals, same key order — including first-seen entries created mid-block and
// attributes of different arities.
func TestAddManyFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// Attribute arities deliberately differ (first-seen edge cases fire at
	// different rates per attribute); attr 2 is binary, attr 0 is wide.
	cards := []int{9, 3, 2, 5}
	const classCard = 3
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(400)
		rows := make([]data.Row, n)
		for i := range rows {
			r := make(data.Row, len(cards)+1)
			for j, c := range cards {
				r[j] = data.Value(rng.Intn(c))
			}
			r[len(cards)] = data.Value(rng.Intn(classCard))
			rows[i] = r
		}
		// A random selection vector, sometimes empty, sometimes everything.
		var sel []int32
		switch trial % 3 {
		case 0:
			for i := 0; i < n; i++ {
				sel = append(sel, int32(i))
			}
		case 1: // empty
		default:
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		attrs := []int{0, 1, 2, 3, len(cards)} // includes the class column, like ccWork.attrs

		seq := New()
		for _, i := range sel {
			seq.AddRow(rows[i], attrs)
		}
		batched := New()
		addManyOverRows(batched, rows, attrs, sel, nil)

		if !batched.Equal(seq) {
			t.Fatalf("trial %d: AddMany result differs from %d sequential AddRow calls:\nbatched: %s\nseq:     %s",
				trial, len(sel), batched, seq)
		}
		if batched.Rows() != int64(len(sel)) {
			t.Fatalf("trial %d: rows = %d, want %d", trial, batched.Rows(), len(sel))
		}
	}
}

// TestAddManyScratchReuse asserts the returned scratch buffer comes back
// zeroed and can be reused across calls (and across differently sized
// dictionaries) without perturbing results.
func TestAddManyScratchReuse(t *testing.T) {
	rows := []data.Row{
		{0, 2, 1}, {1, 0, 0}, {0, 1, 1}, {2, 2, 0}, {1, 1, 1},
	}
	sel := []int32{0, 1, 2, 3, 4}
	seq := New()
	for _, i := range sel {
		seq.AddRow(rows[i], []int{0, 1, 2})
	}
	batched := New()
	hist := addManyOverRows(batched, rows, []int{0, 1, 2}, sel, nil)
	for i, v := range hist {
		if v != 0 {
			t.Fatalf("scratch cell %d not re-zeroed: %d", i, v)
		}
	}
	// Second fold reusing the same scratch must double every count.
	addManyOverRows(batched, rows, []int{0, 1, 2}, sel, hist)
	seq2 := seq.Clone()
	seq2.Merge(seq)
	if !batched.Equal(seq2) {
		t.Fatalf("scratch reuse perturbed the fold:\nbatched: %s\nwant:    %s", batched, seq2)
	}
}

// TestAddManyFoldCount asserts the folded-cells result counts distinct
// (value, class) cells, the quantity the cost model's bound stands for.
func TestAddManyFoldCount(t *testing.T) {
	tab := New()
	dict := []data.Value{3, 7}
	classDict := []data.Value{0, 1}
	codes := []uint16{0, 0, 1, 1}
	classCodes := []uint16{0, 0, 0, 1}
	_, folded := tab.AddMany(2, dict, codes, classDict, classCodes, []int32{0, 1, 2, 3}, nil)
	if folded != 3 { // cells (3,0) x2, (7,0), (7,1)
		t.Fatalf("folded = %d, want 3", folded)
	}
	if got := tab.Count(2, 3, 0); got != 2 {
		t.Fatalf("count(2,3,0) = %d, want 2", got)
	}
	if tab.Entries() != 3 {
		t.Fatalf("entries = %d, want 3", tab.Entries())
	}
	_, folded = tab.AddMany(2, dict, codes, classDict, classCodes, nil, nil)
	if folded != 0 {
		t.Fatalf("empty selection folded %d cells, want 0", folded)
	}
}
