// Package determinism holds the determinism analyzer's testdata: wall-clock
// reads, global math/rand draws and order-leaking map ranges — histograms,
// split bounds and reports computed off a map walk — are caught; seeded
// sources, dense slices, collect-then-sort loops and //repolint:ordered loops
// pass.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

func BadWallClock() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now breaks byte-determinism`
}

func BadElapsed(start time.Time) time.Duration {
	return time.Since(start) // want `wall-clock time\.Since breaks byte-determinism`
}

func BadGlobalRand() int {
	return rand.Intn(10) // want `global math/rand\.Intn draws from the process-wide source`
}

func BadGlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand\.Shuffle`
}

func BadMapOrder(m map[string]int64) []int64 {
	var out []int64
	for _, v := range m { // want `map iteration order is nondeterministic`
		out = append(out, v)
	}
	return out
}

func OkSeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

func OkCollectThenSort(m map[string]int64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func OkAnnotated(m map[string]int64) int64 {
	var sum int64
	//repolint:ordered summation is commutative
	for _, v := range m {
		sum += v
	}
	return sum
}

func OkSliceRange(xs []int64) int64 {
	var sum int64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// BadMapHistogram builds value statistics in a map: any split boundary
// computed from its walk changes run to run.
func BadMapHistogram(values []int) []int64 {
	counts := map[int]int64{}
	for _, v := range values {
		counts[v]++
	}
	var weights []int64
	for _, c := range counts { // want `map iteration order is nondeterministic`
		weights = append(weights, c)
	}
	return weights
}

// BadMapBounds emits prefix boundaries straight off a map walk.
func BadMapBounds(pageWeight map[int]int64, nparts int) []int64 {
	var prefix []int64
	var run int64
	for _, w := range pageWeight { // want `map iteration order is nondeterministic`
		run += w
		prefix = append(prefix, run)
	}
	return prefix
}

// BadDeltaMapOrder renders a counter-delta map in iteration order.
func BadDeltaMapOrder(deltas map[string]int64, emit func(string, int64)) {
	for name, v := range deltas { // want `map iteration order is nondeterministic`
		emit(name, v)
	}
}

// OkSliceHistogram is a dense counts slice indexed by value code (plus an
// overflow counter), walked in index order.
func OkSliceHistogram(values []int, maxValue int) ([]int64, int64) {
	counts := make([]int64, maxValue)
	var over int64
	for _, v := range values {
		if v < 0 || v >= maxValue {
			over++
			continue
		}
		counts[v]++
	}
	return counts, over
}

// OkSortedPageWalk collects the keys, sorts, then walks: the boundaries are
// a pure function of the contents.
func OkSortedPageWalk(pageWeight map[int]int64) []int64 {
	pages := make([]int, 0, len(pageWeight))
	for p := range pageWeight {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	var prefix []int64
	var run int64
	for _, p := range pages {
		run += pageWeight[p]
		prefix = append(prefix, run)
	}
	return prefix
}

// OkDeltaReport sorts the delta keys before rendering.
func OkDeltaReport(deltas map[string]int64, emit func(string, int64)) {
	keys := make([]string, 0, len(deltas))
	for k := range deltas {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(k, deltas[k])
	}
}
