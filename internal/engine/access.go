package engine

import (
	"context"
	"sync"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sqlparser"
)

// This file is how the SQL executor reads the table of a SELECT core. There is
// one plan — no option, no hint, no cost search: every "col = int" /
// "col <> int" AND-conjunct of WHERE is pushed down as one predicate.Conj
// through the engine's one block loop (ScanRange). Row groups whose
// dictionaries rule the conjunction out are skipped unread, only the columns
// the statement references are paid for and decoded, and the selected rows
// reach the executor in heap order. The other conjuncts are the residual,
// evaluated per row.
//
// The conjunction is one chain of code compares per row group, run as
// selection-vector passes (GroupTrie.chainSel). A count-only GROUP BY — no
// residual, at most two plain-column keys, items only COUNT(*), integer
// literals and key columns — is counted in code space (count.go) and never
// materializes a row. Every other statement runs projection, aggregation and
// the residual on materialized rows through the same evaluators; charges are
// per row.

// usedCols is a colResolver that remembers which columns were resolved
// through it. Every column a statement reads is resolved once when its
// expressions compile, so after compilation used is exactly the set the
// columnar plan has to pay for and decode.
type usedCols struct {
	colResolver
	used []bool
}

func (u *usedCols) ColIndex(name string) int {
	i := u.colResolver.ColIndex(name)
	if i >= 0 {
		u.used[i] = true
	}
	return i
}

// list returns the resolved columns, ascending; never nil (nil would mean
// "all columns" to the columnar scan).
func (u *usedCols) list() []int {
	cols := []int{}
	for i, on := range u.used {
		if on {
			cols = append(cols, i)
		}
	}
	return cols
}

// planAccess splits one core's WHERE into the conjunction pushed down to the
// columnar scan (empty: every row is selected) and what is left for the
// executor to evaluate per row (nil when the conjunction answers all of it).
func planAccess(cols colResolver, where sqlparser.Expr) (predicate.Conj, sqlparser.Expr) {
	var conj predicate.Conj
	var rest sqlparser.Expr
	for _, ex := range conjuncts(where, nil) {
		col, op, v, ok := colCompare(ex, cols)
		// A literal outside int32 equals no stored value; narrowing it into
		// a predicate.Cond would alias one that does. It stays residual,
		// where the comparison is made in int64.
		if ok && int64(data.Value(v)) == v {
			conj = append(conj, predicate.Cond{Attr: col, Op: op, Val: data.Value(v)})
			continue
		}
		if rest == nil {
			rest = ex
		} else {
			rest = &sqlparser.BinaryExpr{Op: "AND", L: rest, R: ex}
		}
	}
	return conj, rest
}

// conjuncts appends the operands of ex's top-level ANDs to out, left to
// right; a nil ex has none.
func conjuncts(ex sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if ex == nil {
		return out
	}
	if be, ok := ex.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return conjuncts(be.R, conjuncts(be.L, out))
	}
	return append(out, ex)
}

// colCompare recognizes "col = int" and "col <> int", either way round, and
// returns the column's position, the operator and the literal in full.
func colCompare(ex sqlparser.Expr, cols colResolver) (col int, op predicate.Op, v int64, ok bool) {
	be, isBin := ex.(*sqlparser.BinaryExpr)
	if !isBin || be.Op != "=" && be.Op != "<>" {
		return 0, 0, 0, false
	}
	cr, isCol := be.L.(*sqlparser.ColumnRef)
	il, isInt := be.R.(*sqlparser.IntLit)
	if !isCol || !isInt {
		cr, isCol = be.R.(*sqlparser.ColumnRef)
		il, isInt = be.L.(*sqlparser.IntLit)
	}
	if !isCol || !isInt {
		return 0, 0, 0, false
	}
	if col = cols.ColIndex(cr.Name); col < 0 {
		return 0, 0, 0, false
	}
	op = predicate.Eq
	if be.Op == "<>" {
		op = predicate.Ne
	}
	return col, op, il.Val, true
}

// scanRows drives the rows of t that conj selects through fn, in heap order.
// need lists the columns fn reads: only those are paid for and decoded, the
// rest of the row stays zero.
func (e *Engine) scanRows(ctx context.Context, t *Table, conj predicate.Conj, need []int, fn func(data.Row) error) error {
	var ferr error
	row := make(data.Row, len(t.Cols))
	err := e.scanColumnar(ctx, t, conj, need, func(blk *ColBlock) bool {
		for _, i := range blk.Sel {
			for _, col := range need {
				row[col] = blk.Group.Dict(col)[blk.Group.Codes(col)[i]]
			}
			if ferr = fn(row); ferr != nil {
				return false
			}
		}
		return true
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// stmtConsumers recycles the consumers of statement scans: a consumer keeps
// its compiled trie and its selection vector, which the one-conjunction filter
// (chainSel) sizes to a whole block, so a statement allocates neither.
var stmtConsumers = sync.Pool{New: func() any { return new(ScanConsumer) }}

// scanColumnar is a statement's scan: t's columnar copy through the one block
// loop with conj pushed down, paying for and decoding the columns need, every
// block to fn until it returns false. The groups are resident, so only ctx
// can fail the scan.
func (e *Engine) scanColumnar(ctx context.Context, t *Table, conj predicate.Conj, need []int, fn func(blk *ColBlock) bool) error {
	c := stmtConsumers.Get().(*ScanConsumer)
	c.Filter, c.Lane, c.local, c.Fn = predicate.Or(conj), e.meter, true, fn
	src := t.groups(need, e.meter.Costs())
	err := ScanRange(ctx, src, []*ScanConsumer{c}, 0, src.NumGroups(), e.meter) // a statement opens no cursor
	c.Filter, c.Lane, c.Fn = predicate.Filter{}, nil, nil
	stmtConsumers.Put(c)
	return err
}
