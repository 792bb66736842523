package engine

import (
	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the server side of the columnar scan path: every table keeps
// a column-major, dictionary-encoded copy of its heap (storage.ColStore)
// built at load time and kept in sync with Insert, and the middleware scans
// it in 1024-row blocks through ScanColumnarRange. Three things distinguish
// it from the row cursors in server.go:
//
//   - Zone-map skipping: each row group's sorted dictionaries decide, per
//     group, whether the pushed-down filter can match at all. A skipped
//     group charges nothing — not even page I/O — which is where the
//     clustered-workload win comes from.
//   - Code-space predicates: the filter is compiled once per group into
//     dictionary codes, so the inner row loop compares uint16s instead of
//     re-evaluating predicate.Cond on materialized values.
//   - Block-granular metering: the per-row costs (ColRowEval,
//     ColRowTransmit) are cheaper than their row-path counterparts because
//     cursor bookkeeping and the wire protocol amortize over whole blocks,
//     and page I/O is charged per encoded column actually needed.
//
// Like a cold heapReader (payCold, where the argument is made), the columnar
// scan never consults the shared LRU buffer pool; leaving the pool untouched
// also keeps the row path's I/O accounting independent of whether columnar
// copies exist.

// BlockRows is the number of rows the columnar scan hands to the middleware
// per callback: the vectorization unit of the filter-then-count kernel.
const BlockRows = 1024

// codeCond is one simple condition compiled into a row group's code space.
type codeCond struct {
	col  int
	ne   bool
	code uint16
}

// GroupConj is one conjunction (a node's path predicate) compiled against
// one row group's dictionaries. Conditions that are always true in the
// group are dropped at compile time; a conjunction that cannot match any
// row of the group compiles to None.
type GroupConj struct {
	conds []codeCond
	none  bool
}

// CompileGroupConj compiles cj against g's dictionaries.
func CompileGroupConj(g *storage.ColGroup, cj predicate.Conj) GroupConj {
	var gc GroupConj
	for _, c := range cj {
		code, ok := g.FindCode(c.Attr, c.Val)
		card := len(g.Dict(c.Attr))
		if c.Op == predicate.Eq {
			if !ok {
				return GroupConj{none: true} // value absent: zone-map verdict
			}
			if card == 1 {
				continue // every row of the group has this value
			}
			gc.conds = append(gc.conds, codeCond{col: c.Attr, code: code})
		} else {
			if !ok {
				continue // value absent: Ne is true for every row
			}
			if card == 1 {
				return GroupConj{none: true} // every row has exactly this value
			}
			gc.conds = append(gc.conds, codeCond{col: c.Attr, ne: true, code: code})
		}
	}
	return gc
}

// None reports that no row of the group can satisfy the conjunction.
func (gc *GroupConj) None() bool { return gc.none }

// Refine filters sel (group-relative row indices) down to the rows
// satisfying the compiled conjunction, appending to out and returning it.
// Unmetered: callers charge their own per-row kernel costs.
func (gc *GroupConj) Refine(g *storage.ColGroup, sel []int32, out []int32) []int32 {
	if gc.none {
		return out
	}
	if len(gc.conds) == 0 {
		return append(out, sel...)
	}
	for _, i := range sel {
		ok := true
		for _, c := range gc.conds {
			if (g.Codes(c.col)[i] == c.code) == c.ne {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Estimate returns the estimated number of group rows matching the
// conjunction, from the group's exact per-code counts under the same
// column-independence assumption as bucketStat.estimateConj — except that
// here single-condition estimates are exact, and so is the None case.
func (gc *GroupConj) Estimate(g *storage.ColGroup) int64 {
	if gc.none {
		return 0
	}
	rows := int64(g.NumRows())
	est := rows
	for _, c := range gc.conds {
		if est == 0 {
			return 0
		}
		cnt := g.CodeCounts(c.col)[c.code]
		if c.ne {
			cnt = rows - cnt
		}
		est = est * cnt / rows
	}
	return est
}

// GroupFilter is a disjunction of compiled conjunctions: the batch filter
// compiled against one row group. A filter with no surviving conjunctions
// matches no row of the group, which is the zone-map skip signal.
type GroupFilter struct {
	all   bool
	conjs []GroupConj
}

// CompileGroupFilter compiles f against g's dictionaries, dropping
// conjunctions that cannot match in this group.
func CompileGroupFilter(g *storage.ColGroup, f predicate.Filter) GroupFilter {
	if f.All() {
		return GroupFilter{all: true}
	}
	var gf GroupFilter
	for _, cj := range f.Conjs() {
		gc := CompileGroupConj(g, cj)
		if gc.none {
			continue
		}
		if len(gc.conds) == 0 {
			return GroupFilter{all: true} // one disjunct covers the whole group
		}
		gf.conjs = append(gf.conjs, gc)
	}
	return gf
}

// None reports that no row of the group can satisfy the filter: the group
// is skipped before any page I/O is charged.
func (gf *GroupFilter) None() bool { return !gf.all && len(gf.conjs) == 0 }

// selectBlock appends the group-relative indices of the matching rows in
// [base, base+n) to out.
func (gf *GroupFilter) selectBlock(g *storage.ColGroup, base, n int, out []int32) []int32 {
	if gf.all {
		for i := 0; i < n; i++ {
			out = append(out, int32(base+i))
		}
		return out
	}
	for i := base; i < base+n; i++ {
		for ci := range gf.conjs {
			ok := true
			for _, c := range gf.conjs[ci].conds {
				if (g.Codes(c.col)[i] == c.code) == c.ne {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, int32(i))
				break
			}
		}
	}
	return out
}

// Refine filters sel (group-relative row indices) down to the rows
// satisfying the compiled filter, appending to out and returning it.
// Unmetered, like GroupConj.Refine.
func (gf *GroupFilter) Refine(g *storage.ColGroup, sel []int32, out []int32) []int32 {
	if gf.all {
		return append(out, sel...)
	}
	for _, i := range sel {
		for ci := range gf.conjs {
			ok := true
			for _, c := range gf.conjs[ci].conds {
				if (g.Codes(c.col)[i] == c.code) == c.ne {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Estimate returns the estimated number of group rows matching the filter:
// disjunct estimates summed and clamped to the group's row count.
func (gf *GroupFilter) Estimate(g *storage.ColGroup) int64 {
	rows := int64(g.NumRows())
	if gf.all {
		return rows
	}
	var est int64
	for i := range gf.conjs {
		est += gf.conjs[i].Estimate(g)
		if est >= rows {
			return rows
		}
	}
	return est
}

// ColBlock is one block of a columnar scan: rows [Base, Base+N) of Group,
// with Sel holding the group-relative indices of the rows matching the
// pushed-down filter. The same ColBlock is reused across callbacks; callers
// must not retain it or Sel.
type ColBlock struct {
	Group      *storage.ColGroup
	GroupIndex int
	Base       int
	N          int
	Sel        []int32
}

// MaterializeRow decodes the full row at group-relative index i into dst
// (grown as needed). Unmetered: the scan already charged the block.
func (b *ColBlock) MaterializeRow(i int32, dst data.Row) data.Row {
	nc := b.Group.NumCols()
	if cap(dst) < nc {
		dst = make(data.Row, nc)
	}
	dst = dst[:nc]
	for c := 0; c < nc; c++ {
		dst[c] = b.Group.Dict(c)[b.Group.Codes(c)[i]]
	}
	return dst
}

// ColumnarAvailable reports whether the server's table has a columnar copy
// to scan. Tables populated through CreateTable/Insert/BulkLoad — including
// the temp tables CopySubset builds — always do.
func (s *Server) ColumnarAvailable() bool {
	return s.table.colstore != nil && s.table.colstore.NumRows() == s.table.NumRows()
}

// NumColGroups returns the number of columnar row groups — the unit the
// partitioned columnar scan divides between workers.
func (s *Server) NumColGroups() int {
	if s.table.colstore == nil {
		return 0
	}
	return s.table.colstore.NumGroups()
}

// ColGroupBounds returns histogram-guided group boundaries splitting a
// columnar scan with filter f into nparts lanes of approximately equal
// estimated cost: per group, the page I/O for the needed columns (nil
// needCols means all), per-row block evaluation, and perMatch — the
// caller's full per-matching-row cost — times the estimated matching rows.
// Groups the zone maps prove empty weigh nothing, so lanes are balanced
// over the work that will actually be done. WeightedBounds-shaped, pure,
// and unmetered, like PageBounds; nil means "use equal-width".
func (s *Server) ColGroupBounds(f predicate.Filter, needCols []int, nparts int, perMatch int64) []int {
	if s.noHints || nparts < 2 {
		return nil
	}
	cs := s.table.colstore
	if cs == nil || cs.NumGroups() == 0 {
		return nil
	}
	costs := s.meter.Costs()
	weights := make([]int64, cs.NumGroups())
	for gi := range weights {
		g := cs.Group(gi)
		gf := CompileGroupFilter(g, f)
		if gf.None() {
			continue // skipped group: the lane pays nothing for it
		}
		weights[gi] = g.Pages(needCols)*costs.ServerPageIO +
			int64(g.NumRows())*costs.ColRowEval +
			gf.Estimate(g)*perMatch
	}
	return WeightedBounds(weights, nparts)
}

// ScanColumnarRange scans columnar row groups [loGroup, hiGroup) with f
// pushed down, invoking fn per BlockRows-row block until fn returns false:
// a cohort of one on the shared block loop (scanColumnar), with the cursor
// open and page I/O charged to the consumer's own lane. needCols lists the
// columns whose pages the scan reads (nil means all; callers that
// materialize full rows must pass nil). All costs are charged to lane (the
// server's own meter when nil). Groups whose zone maps prove the filter
// unsatisfiable are skipped before any charge. Empty ranges are valid and
// yield no blocks.
func (s *Server) ScanColumnarRange(f predicate.Filter, needCols []int, loGroup, hiGroup int, lane *sim.Meter, fn func(blk *ColBlock) bool) {
	if lane == nil {
		lane = s.meter
	}
	s.scanColumnar([]*ScanConsumer{{Filter: f, Lane: lane, Fn: fn}}, needCols, loGroup, hiGroup, lane)
}
