package engine

import (
	"math"
	"sync"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sqlparser"
)

// This file is the SQL executor's access-path choice for a single-table
// SELECT core. It is one rule — no option, no hint, no cost search — over
// the AND-conjuncts of WHERE:
//
//  1. index: a B-tree covers some "col =|<|<=|>|>= int" conjunct. Probe its
//     key range and fetch the rows by TID (key order); the other conjuncts
//     are the residual filter.
//  2. columnar: otherwise. Every "col = int" / "col <> int" conjunct is pushed
//     down as one predicate.Conj through the engine's one block loop
//     (scanGroups): row groups whose dictionaries rule the conjunction out are
//     skipped unread, only the columns the statement references are paid for
//     and decoded, and the selected rows reach the executor in heap order. The
//     other conjuncts are the residual.
//
// The columnar plan's conjunction is one chain of code compares per row group,
// run as selection-vector passes (GroupTrie.chainSel). A count-only GROUP BY
// on it — no residual, HAVING or DISTINCT, at most two plain-column keys, items
// only COUNT(*), integer literals and key columns — is counted in code space
// (count.go) and never materializes a row. Every other statement, whatever the
// path, runs projection, aggregation and the residual on materialized rows
// through the same evaluators, so a statement's result does not depend on the
// path (the index plan's row order aside); charges are per row on every path.

// accessPath is the path planAccess chose: the index plan when idx is set, the
// columnar plan otherwise.
type accessPath struct {
	idx    *Index // index plan: probe keys [lo, hi]
	lo, hi int64
	conj   predicate.Conj // columnar plan: pushed down; empty: every row is selected
}

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

// planAccess applies the rule to one core's WHERE and returns the chosen path
// with what is left of WHERE for the executor to evaluate per row (nil when
// the path answers all of it).
func planAccess(t *Table, cols colResolver, where sqlparser.Expr) (accessPath, sqlparser.Expr) {
	conjs := conjuncts(where, nil)
	for i, ex := range conjs {
		col, op, v, ok := colCompare(ex, cols)
		if !ok || op == "<>" {
			continue
		}
		if idx, has := t.indexes[t.Cols[col]]; has {
			lo, hi := keyRange(op, v)
			rest := append(conjs[:i:i], conjs[i+1:]...)
			return accessPath{idx: idx, lo: lo, hi: hi}, andOf(rest)
		}
	}
	var p accessPath
	var rest []sqlparser.Expr
	for _, ex := range conjs {
		col, op, v, ok := colCompare(ex, cols)
		// A literal outside int32 equals no stored value; narrowing it into
		// a predicate.Cond would alias one that does. It stays residual,
		// where the comparison is made in int64.
		if ok && (op == "=" || op == "<>") && int64(data.Value(v)) == v {
			pop := predicate.Eq
			if op == "<>" {
				pop = predicate.Ne
			}
			p.conj = append(p.conj, predicate.Cond{Attr: col, Op: pop, Val: data.Value(v)})
			continue
		}
		rest = append(rest, ex)
	}
	return p, andOf(rest)
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

// andOf is the inverse of conjuncts: nil for no operands.
func andOf(conjs []sqlparser.Expr) sqlparser.Expr {
	var ex sqlparser.Expr
	for _, c := range conjs {
		if ex == nil {
			ex = c
		} else {
			ex = &sqlparser.BinaryExpr{Op: "AND", L: ex, R: c}
		}
	}
	return ex
}

// mirrored is each comparison operator with its operands swapped.
var mirrored = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// colCompare recognizes "col OP int" — or "int OP col", mirrored — with OP a
// comparison, and returns the column's position, OP and the literal in full.
func colCompare(ex sqlparser.Expr, cols colResolver) (col int, op string, v int64, ok bool) {
	be, isBin := ex.(*sqlparser.BinaryExpr)
	if !isBin {
		return 0, "", 0, false
	}
	op, isCmp := mirrored[be.Op]
	cr, isCol := be.L.(*sqlparser.ColumnRef)
	il, isInt := be.R.(*sqlparser.IntLit)
	if isCol && isInt {
		op = be.Op
	} else {
		cr, isCol = be.R.(*sqlparser.ColumnRef)
		il, isInt = be.L.(*sqlparser.IntLit)
	}
	if !isCmp || !isCol || !isInt {
		return 0, "", 0, false
	}
	if col = cols.ColIndex(cr.Name); col < 0 {
		return 0, "", 0, false
	}
	return col, op, il.Val, true
}

// keyRange returns the closed B-tree key range of "col op v" (op not <>).
// Keys are int32 column values, so v is first clamped to one past either end
// of int32: the ±1 below cannot overflow, "=" on an out-of-range literal
// probes a key no row has, and a range runs to the end its literal exceeds.
func keyRange(op string, v int64) (lo, hi int64) {
	v = min(max(v, math.MinInt32-1), math.MaxInt32+1)
	lo, hi = math.MinInt32, math.MaxInt32
	switch op {
	case "=":
		lo, hi = v, v
	case "<":
		hi = v - 1
	case "<=":
		hi = v
	case ">":
		lo = v + 1
	case ">=":
		lo = v
	}
	return lo, hi
}

// scan drives the rows the path selects from t through fn.
// need lists the columns fn reads: the columnar plan pays for and decodes
// only those, leaving the rest of row zero.
func (p accessPath) scan(e *Engine, t *Table, need []int, fn func(data.Row) error) error {
	if p.idx != nil {
		var row data.Row
		r := e.reader(t)
		for _, tid := range e.LookupRange(p.idx, p.lo, p.hi) {
			var err error
			if row, err = r.fetch(tid, row); err != nil {
				return err
			}
			if err = fn(row); err != nil {
				return err
			}
		}
		return nil
	}
	var ferr error
	row := make(data.Row, len(t.Cols))
	e.scanColumnar(t, p.conj, need, func(blk *ColBlock) bool {
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
	return ferr
}

// stmtConsumers recycles the consumers of statement scans: a consumer keeps
// its compiled trie and its selection vector, which the one-conjunction filter
// (chainSel) sizes to a whole block, so a statement allocates neither.
var stmtConsumers = sync.Pool{New: func() any { return new(ScanConsumer) }}

// scanColumnar is the columnar plan's scan: t's columnar copy through the one
// block loop with conj pushed down, paying for and decoding the columns need,
// every block to fn until it returns false.
func (e *Engine) scanColumnar(t *Table, conj predicate.Conj, need []int, fn func(blk *ColBlock) bool) {
	c := stmtConsumers.Get().(*ScanConsumer)
	c.Filter, c.Lane, c.local, c.Fn = predicate.Or(conj), e.meter, true, fn
	src := t.groups(need, e.meter.Costs())
	scanGroups(src, []*ScanConsumer{c}, 0, src.NumGroups(), e.meter) // a statement opens no cursor
	c.Filter, c.Lane, c.Fn = predicate.Filter{}, nil, nil
	stmtConsumers.Put(c)
}
