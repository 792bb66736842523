package engine

import (
	"context"
	"slices"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// This file is the code-space executor of one statement shape, the count-only
// GROUP BY: the §2.3 strawman's and every §4.1.1 fallback arm's
// "SELECT a, b, COUNT(*) FROM t WHERE <path> GROUP BY a, b". On the columnar
// plan such a statement needs no row: the selected rows of a block are counted
// by their GROUP BY codes, and codes become values once per touched cell.
// Every other statement runs on the evaluator path (execCore).

// maxCountCells bounds a count-only statement's dense histogram: one with more
// cells than a row group has rows would be mostly empty, so a table whose
// dictionaries need more stays on the evaluator path.
const maxCountCells = storage.RowGroupSize

// countPlan is a count-only core's shape in code space.
type countPlan struct {
	keys  []int // the GROUP BY columns, at most two
	items []countItem
	cells int // the largest histogram a row group of the table needs
}

// countItem is one select item: COUNT(*), the value of GROUP BY column
// keys[key] (key >= 0), or the integer literal lit.
type countItem struct {
	count bool
	key   int
	lit   int64
}

// countOnly recognizes a count-only core of t, resolving columns through cols:
// at most two GROUP BY keys that are plain columns, and select items that are
// only COUNT(*), integer literals or GROUP BY columns — an aggregate or a GROUP
// BY there must be, or the core is a projection. The caller has established
// the rest: a single-table core on the columnar plan with no residual filter.
func countOnly(c *sqlparser.SelectCore, cols colResolver, t *Table) (countPlan, bool) {
	var p countPlan
	if len(c.GroupBy) > 2 {
		return p, false
	}
	for _, g := range c.GroupBy {
		cr, ok := g.(*sqlparser.ColumnRef)
		if !ok || cols.ColIndex(cr.Name) < 0 {
			return p, false
		}
		p.keys = append(p.keys, cols.ColIndex(cr.Name))
	}
	counted := false
	for _, si := range c.Items {
		if si.Star {
			return p, false
		}
		it := countItem{key: -1}
		switch x := si.Expr.(type) {
		case *sqlparser.CountStar:
			it.count, counted = true, true
		case *sqlparser.IntLit:
			it.lit = x.Val
		case *sqlparser.ColumnRef:
			if it.key = slices.Index(p.keys, cols.ColIndex(x.Name)); it.key < 0 {
				return p, false
			}
		default:
			return p, false
		}
		p.items = append(p.items, it)
	}
	if !counted && len(p.keys) == 0 {
		return p, false
	}
	p.cells = 1
	for gi := 0; gi < t.colstore.NumGroups(); gi++ {
		cells := 1
		for _, k := range p.keys {
			cells *= len(t.colstore.Group(gi).Dict(k))
		}
		if cells > maxCountCells {
			return p, false
		}
		p.cells = max(p.cells, cells)
	}
	return p, true
}

// countCodes runs count-only core p over t's columnar copy with conj pushed
// down and returns its rows. Per block it bumps a dense histogram indexed by
// code₀·|dict₁| + code₁ over the selected rows, recording each cell the first
// time the block touches it, then folds the touched cells, in touch order, into
// a value-keyed group table: groups appear in the order of their first row, as
// the evaluator path's do. Charges are the evaluator path's — the scan's, and
// SQLAggRow per selected row. A cancelled scan returns ctx.Err().
func (e *Engine) countCodes(ctx context.Context, t *Table, conj predicate.Conj, need []int, p countPlan) ([][]Val, error) {
	type group struct {
		key [2]data.Value
		n   int64
	}
	var groups []group
	index := map[[2]data.Value]int{}
	hist, touched := make([]int32, p.cells), make([]int32, 0, p.cells) // hist is all zero between blocks
	aggCost := e.meter.Costs().SQLAggRow
	err := e.scanColumnar(ctx, t, conj, need, func(blk *ColBlock) bool {
		if len(blk.Sel) == 0 {
			return true
		}
		e.meter.Charge(sim.CtrSQLAggRows, aggCost, int64(len(blk.Sel)))
		var dicts [2][]data.Value
		var codes [2][]uint16
		for k, col := range p.keys {
			dicts[k], codes[k] = blk.Group.Dict(col), blk.Group.Codes(col)
		}
		stride := max(len(dicts[1]), 1)
		touched = touched[:0]
		switch len(p.keys) {
		case 0:
			hist[0], touched = int32(len(blk.Sel)), append(touched, 0)
		case 1:
			for _, i := range blk.Sel {
				cell := codes[0][i]
				if hist[cell] == 0 {
					touched = append(touched, int32(cell))
				}
				hist[cell]++
			}
		default:
			c0, c1 := codes[0], codes[1]
			for _, i := range blk.Sel {
				cell := int(c0[i])*stride + int(c1[i])
				if hist[cell] == 0 {
					touched = append(touched, int32(cell))
				}
				hist[cell]++
			}
		}
		for _, cell := range touched {
			var key [2]data.Value
			if len(p.keys) > 0 {
				key[0] = dicts[0][int(cell)/stride]
			}
			if len(p.keys) > 1 {
				key[1] = dicts[1][int(cell)%stride]
			}
			gi, ok := index[key]
			if !ok {
				gi = len(groups)
				index[key] = gi
				groups = append(groups, group{key: key})
			}
			groups[gi].n += int64(hist[cell])
			hist[cell] = 0
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(groups) == 0 && len(p.keys) == 0 {
		// An aggregate without GROUP BY over no rows still answers one row:
		// COUNT(*) 0, and the other items 0 too, as on the evaluator path.
		return [][]Val{make([]Val, len(p.items))}, nil
	}
	rows, vals := make([][]Val, len(groups)), make([]Val, len(groups)*len(p.items))
	for gi, g := range groups {
		row := vals[gi*len(p.items) : (gi+1)*len(p.items) : (gi+1)*len(p.items)]
		for i, it := range p.items {
			switch {
			case it.count:
				row[i] = IntVal(g.n)
			case it.key >= 0:
				row[i] = IntVal(int64(g.key[it.key]))
			default:
				row[i] = IntVal(it.lit)
			}
		}
		rows[gi] = row
	}
	return rows, nil
}
