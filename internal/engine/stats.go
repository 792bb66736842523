package engine

import (
	"repro/internal/data"
	"repro/internal/predicate"
)

// statMaxValue bounds the per-column value histograms: categorical codes in
// [0, statMaxValue) get an exact counter, anything larger shares one overflow
// counter. The paper's workloads have attribute cardinalities far below this,
// so in practice the histograms are exact.
const statMaxValue = 64

// colCounts is the per-column value histogram of one bucket: exact counts for
// small categorical codes plus an overflow counter. Slices (not maps) keep
// every walk deterministically ordered.
type colCounts struct {
	counts []int64 // counts[v] = rows with column value v, for v < statMaxValue
	over   int64   // rows with column value >= statMaxValue
}

func (c *colCounts) note(v data.Value) {
	i := int(v)
	if i < 0 || i >= statMaxValue {
		c.over++
		return
	}
	for len(c.counts) <= i {
		c.counts = append(c.counts, 0)
	}
	c.counts[i]++
}

// count returns the number of noted rows with column value v. Values in the
// overflow range are not individually distinguishable; the shared overflow
// count is the best (over-)estimate available.
func (c *colCounts) count(v data.Value) int64 {
	i := int(v)
	if i < 0 {
		return 0
	}
	if i >= statMaxValue {
		return c.over
	}
	if i >= len(c.counts) {
		return 0
	}
	return c.counts[i]
}

// bucketStat summarizes one bucket (a heap page): the resident row count and
// one value histogram per column.
type bucketStat struct {
	rows int64
	cols []colCounts
}

// estimate returns the estimated number of bucket rows matching f, assuming
// column independence within the bucket (the textbook Selinger estimate, in
// pure integer arithmetic so boundaries derived from it are deterministic).
// Disjunct estimates are summed and clamped to the bucket's row count.
func (b *bucketStat) estimate(f predicate.Filter) int64 {
	if f.All() {
		return b.rows
	}
	if b.rows == 0 || f.Empty() {
		return 0
	}
	var est int64
	for _, cj := range f.Conjs() {
		est += b.estimateConj(cj)
		if est >= b.rows {
			return b.rows
		}
	}
	return est
}

func (b *bucketStat) estimateConj(cj predicate.Conj) int64 {
	est := b.rows
	for _, c := range cj {
		if est == 0 {
			return 0
		}
		if c.Attr < 0 || c.Attr >= len(b.cols) {
			continue
		}
		cnt := b.cols[c.Attr].count(c.Val)
		if c.Op == predicate.Ne {
			cnt = b.rows - cnt
		}
		est = est * cnt / b.rows
	}
	return est
}

// PageHint is the per-bucket estimate returned by partition-hint queries:
// resident rows plus the estimated rows matching the filter. Both are exact
// totals of the noted rows (Match is an estimate only when the filter touches
// more than one column of the same bucket).
type PageHint struct {
	Rows  int64 // rows resident in the bucket
	Match int64 // estimated rows matching the filter
}

// ValueStats is a cheap statistics sketch over a heap's rows: one bucket per
// page, each carrying per-column value histograms. Everything is integer
// counters over slices, so hint computation is a pure deterministic function
// of the noted rows — and it is never metered: statistics ride along with
// writes the caller already paid for. (Row groups need no such sketch: their
// dictionaries and per-code counts are exact.)
type ValueStats struct {
	ncols   int
	buckets []bucketStat
}

// NewValueStats creates stats for rows of ncols columns.
func NewValueStats(ncols int) *ValueStats { return &ValueStats{ncols: ncols} }

// NoteAt records one row placed in the given bucket (growing the bucket list
// as needed). Heap tables use the row's page id as the bucket.
func (vs *ValueStats) NoteAt(bucket int, r data.Row) {
	if vs == nil || bucket < 0 {
		return
	}
	for len(vs.buckets) <= bucket {
		vs.buckets = append(vs.buckets, bucketStat{})
	}
	b := &vs.buckets[bucket]
	if b.cols == nil {
		b.cols = make([]colCounts, vs.ncols)
	}
	b.rows++
	for i := 0; i < vs.ncols && i < len(r); i++ {
		b.cols[i].note(r[i])
	}
}

// BucketHints estimates, per bucket, how many rows match f. A nil receiver
// returns nil (callers fall back to equal-width splits).
func (vs *ValueStats) BucketHints(f predicate.Filter) []PageHint {
	if vs == nil || len(vs.buckets) == 0 {
		return nil
	}
	hints := make([]PageHint, len(vs.buckets))
	for i := range vs.buckets {
		b := &vs.buckets[i]
		hints[i] = PageHint{Rows: b.rows, Match: b.estimate(f)}
	}
	return hints
}

// EstimateMatch returns the estimated total number of rows matching f.
func (vs *ValueStats) EstimateMatch(f predicate.Filter) int64 {
	if vs == nil {
		return 0
	}
	var n int64
	for i := range vs.buckets {
		n += vs.buckets[i].estimate(f)
	}
	return n
}

// PartitionHints returns the per-page matching-row estimates for f, padded
// to the heap's page count. Tables populated only through Insert/BulkLoad
// always have stats; the result is nil only for empty tables.
func (t *Table) PartitionHints(f predicate.Filter) []PageHint {
	if t.stats == nil || t.heap.NumPages() == 0 {
		return nil
	}
	hints := t.stats.BucketHints(f)
	for len(hints) < t.heap.NumPages() {
		hints = append(hints, PageHint{})
	}
	return hints
}

// WeightedBounds splits the index range [0, len(weights)) into nparts
// contiguous spans of approximately equal total weight: the returned slice b
// has nparts+1 monotone entries with b[0] = 0 and b[nparts] = len(weights),
// and part i covers [b[i], b[i+1]). Some spans may be empty. The split is a
// pure integer function of the weights, so it is deterministic. Degenerate
// inputs (no weights, non-positive totals, negative weights, nparts < 1)
// return nil and the caller falls back to equal-width splitting.
func WeightedBounds(weights []int64, nparts int) []int {
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
	bounds := make([]int, nparts+1)
	bounds[nparts] = len(weights)
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
