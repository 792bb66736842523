// Package coldict reconstructs the tempting-but-wrong way to build a columnar
// row group's dictionary: collect the distinct values of a column into a map
// and range it to assign codes. Map iteration order varies between runs, so
// two builds of the same table would disagree on every code — and with them
// every downstream fingerprint. The determinism analyzer must catch both the
// code assignment and the page-size accounting built that way; the shipped
// collect-then-sort construction (storage.GroupBuilder's: first-seen order, sorted at seal, never a ranged map) passes.
package coldict

import "sort"

// Value mirrors data.Value for the testdata module.
type Value int32

// BadDictCodes assigns dictionary codes in map iteration order: the same
// column gets different codes on every run.
func BadDictCodes(col []Value) map[Value]uint16 {
	distinct := map[Value]bool{}
	for _, v := range col {
		distinct[v] = true
	}
	codes := map[Value]uint16{}
	next := uint16(0)
	for v := range distinct { // want `map iteration order is nondeterministic`
		codes[v] = next
		next++
	}
	return codes
}

// BadDictBytes sums the modeled dictionary size by ranging a per-column map:
// with float accumulation downstream this leaks iteration order into the
// cost model.
func BadDictBytes(dicts map[int][]Value) []int {
	var sizes []int
	for _, dict := range dicts { // want `map iteration order is nondeterministic`
		sizes = append(sizes, 4*len(dict))
	}
	return sizes
}

// OkDictSorted is the shipped construction: collect the distinct values into
// a slice, sort, dedupe, and let the position be the code. The sorted
// dictionary doubles as the group's zone map.
func OkDictSorted(col []Value) ([]Value, []uint16) {
	dict := make([]Value, len(col))
	copy(dict, col)
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	n := 0
	for i, v := range dict {
		if i == 0 || v != dict[n-1] {
			dict[n] = v
			n++
		}
	}
	dict = dict[:n]
	codes := make([]uint16, len(col))
	for i, v := range col {
		codes[i] = uint16(sort.Search(len(dict), func(j int) bool { return dict[j] >= v }))
	}
	return dict, codes
}
