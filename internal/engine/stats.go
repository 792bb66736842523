package engine

import "slices"

// weightedBounds splits the index range [0, len(weights)) into nparts
// contiguous spans of approximately equal total weight: the returned slice b
// has nparts+1 monotone entries with b[0] = 0 and b[nparts] = len(weights),
// and part i covers [b[i], b[i+1]). Some spans may be empty. The split is a
// pure integer function of the weights, so it is deterministic. Degenerate
// inputs (no weights, non-positive totals, negative weights, nparts < 1)
// return nil and the caller falls back to equal-width splitting. The result
// reuses dst's storage.
func weightedBounds(dst []int, weights []int64, nparts int) []int {
	if nparts < 1 || len(weights) == 0 {
		return nil
	}
	var total int64
	for _, w := range weights {
		if w < 0 {
			return nil
		}
		total += w
	}
	if total <= 0 {
		return nil
	}
	bounds := slices.Grow(dst[:0], nparts+1)[:nparts+1]
	bounds[0], bounds[nparts] = 0, len(weights)
	var prefix int64
	j := 0
	for i := 1; i < nparts; i++ {
		// Smallest j whose weight prefix reaches the i-th equal share.
		target := total * int64(i) / int64(nparts)
		for j < len(weights) && prefix < target {
			prefix += weights[j]
			j++
		}
		bounds[i] = j
	}
	return bounds
}

// RangeOf resolves partition part of nparts over n units: span [lo, hi) from
// the weighted bounds when present, the equal-width formula otherwise. It is
// the one place all partitioned sources — the engine's and the middleware's —
// share, so the property tests pin the same arithmetic the production scans
// use.
func RangeOf(part, nparts, n int, bounds []int) (lo, hi int) {
	if len(bounds) == nparts+1 {
		return bounds[part], bounds[part+1]
	}
	return part * n / nparts, (part + 1) * n / nparts
}
