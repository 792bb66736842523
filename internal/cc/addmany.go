package cc

import (
	"slices"

	"repro/internal/data"
)

// AddMany is the batched seam of the vectorized counting kernel: one call
// counts a whole selection vector's worth of (attr, value, class) increments
// into the table, replacing len(sel) sequential Add probes with a dense
// histogram bump per row (Bump) plus one vector add per distinct value
// (Fold). The middleware calls the two halves itself, so that one histogram
// can take several blocks' bumps before it folds; AddMany is the pair over
// one selection.
//
// codes and classCodes are dictionary-encoded column vectors (codes[i] indexes
// dict, classCodes[i] indexes classDict) and sel lists the selected row
// offsets. For every i in sel the count of (attr, dict[codes[i]],
// classDict[classCodes[i]]) is incremented by one; only values and classes
// that occur in the selection enter the table, so AddMany is fold-equivalent
// to the sequential Add calls in every observable way (asserted by
// TestAddManyFoldEquivalence).
//
// hist is an optional scratch buffer, all zeros on entry and returned all
// zeros; pass nil to allocate. The returned slice is the (possibly grown)
// scratch buffer; the second result is Fold's.
func (t *Table) AddMany(attr int, dict []data.Value, codes []uint16, classDict []data.Value, classCodes []uint16, sel []int32, hist []int64) ([]int64, int) {
	need := len(dict) * len(classDict)
	if cap(hist) < need {
		hist = make([]int64, need)
	}
	hist = hist[:need]
	Bump(hist, codes, classCodes, len(classDict), sel)
	return hist, t.Fold(attr, dict, classDict, hist)
}

// Bump adds one to cell codes[i]*nc + classCodes[i] of hist for every i in
// sel: the per-row half of counting, a dense histogram over one row group's
// (value, class) codes, nc classes to a row. Bumps of any number of blocks of
// the same group may accumulate in one histogram before it folds.
func Bump(hist []int64, codes, classCodes []uint16, nc int, sel []int32) {
	for _, i := range sel {
		hist[int(codes[i])*nc+int(classCodes[i])]++
	}
}

// Fold adds hist, a histogram of len(dict)*len(classDict) cells as Bump fills
// it, to attribute attr's counts and re-zeroes every cell it touched, so hist
// is all zeros again and can take the next bumps without clearing. dict and
// classDict are sorted and distinct, as storage.ColGroup's dictionaries are,
// so the fold resolves each class's cell once per call and walks the column's
// values with one forward cursor: nothing is searched per cell. It returns the
// number of distinct (value, class) cells folded. The cost model does not
// charge it: it charges the fold's bound, min(rows, len(dict)*len(classDict))
// per block, which a derived node has without counting its rows, and a
// histogram that took k blocks folds at most the k blocks' bounds summed. The
// count stays as the witness that the bound holds (TestFoldCountWithinBound,
// FuzzTableOps).
func (t *Table) Fold(attr int, dict, classDict []data.Value, hist []int64) int {
	nd, nc := len(dict), len(classDict)
	// Per call, not per cell: each class's cell in t, plus one (0 until the
	// call folds a cell of that class; classes past maxReserve are looked up
	// every time), the column, and a cursor past the last of its sorted
	// values folded, as dict ascends too. The column is taken at the first
	// touched cell, after reserve: reserve replaces t.cols.
	var ranks [maxReserve]int
	var col *column
	cur, folded := 0, 0
	for v := 0; v < nd; v++ {
		row := hist[v*nc : (v+1)*nc]
		ri := -1
		for c, n := range row {
			if n == 0 {
				continue
			}
			if col == nil {
				if t.stride == 0 {
					t.reserve()
				}
				col = t.col(attr)
			}
			// Class first: a new class restrides every column, a new value
			// reallocates this one, and the cell is addressed after both.
			var ci int
			if c < maxReserve && ranks[c] > 0 {
				ci = ranks[c] - 1
			} else {
				k := len(t.classes)
				ci = t.classRank(classDict[c])
				if len(t.classes) != k {
					ranks = [maxReserve]int{} // a new class moves every rank behind it
				}
				if c < maxReserve {
					ranks[c] = ci + 1
				}
			}
			if ri < 0 {
				ri = cur
				if ri == len(col.vals) || col.vals[ri] != dict[v] {
					i, ok := slices.BinarySearch(col.vals[cur:], dict[v])
					ri += i
					if !ok {
						t.insertValue(col, ri, dict[v])
					}
				}
				cur = ri + 1
			}
			p := &col.counts[ri*t.stride+ci]
			if *p == 0 {
				t.entries++
			}
			*p += n
			folded++
			row[c] = 0
		}
	}
	return folded
}

// AddRows advances the node row counter by n: the batched counterpart of the
// per-row bump AddRow performs, charged once per (node, block) by the
// vectorized kernel beside its bumps.
func (t *Table) AddRows(n int64) { t.rows += n }
