package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sqlparser"
)

// Val is one result-set value: an integer or a string.
type Val struct {
	I   int64
	S   string
	Str bool
}

// IntVal and StrVal construct result values.
func IntVal(i int64) Val  { return Val{I: i} }
func StrVal(s string) Val { return Val{S: s, Str: true} }

// String renders the value.
func (v Val) String() string {
	if v.Str {
		return v.S
	}
	return fmt.Sprintf("%d", v.I)
}

// less orders values: integers before strings, then by value.
func (v Val) less(o Val) bool {
	if v.Str != o.Str {
		return !v.Str
	}
	if v.Str {
		return v.S < o.S
	}
	return v.I < o.I
}

func (v Val) equal(o Val) bool { return v == o }

// ResultSet is the materialized result of a query.
type ResultSet struct {
	Cols []string
	Rows [][]Val
}

// String renders the result set as an aligned text table.
func (rs *ResultSet) String() string {
	widths := make([]int, len(rs.Cols))
	for i, c := range rs.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for ri, r := range rs.Rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range rs.Cols {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteString("\n")
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ErrNeedsServing is what the engine answers a statement that only the
// serving layer can run: BUILD TREE drives the middleware, and the middleware
// imports the engine, not the reverse.
var ErrNeedsServing = errors.New("needs the serving layer (a served table)")

// Exec is ExecContext that cannot be cancelled.
func (e *Engine) Exec(sql string) (*ResultSet, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement, charging the
// per-statement QueryStartup cost. DDL and DML statements return a nil result
// set. A statement's table scans check ctx once per block and return
// ctx.Err() once it is done.
func (e *Engine) ExecContext(ctx context.Context, sql string) (*ResultSet, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.execStmt(ctx, st, sql)
}

// ExecStmt executes an already-parsed statement; sql, its source text,
// labels the statement's span.
func (e *Engine) ExecStmt(st sqlparser.Statement, sql string) (*ResultSet, error) {
	return e.execStmt(context.Background(), st, sql)
}

// Exec parses and executes one SQL statement like Engine.ExecContext, but on
// the view's own meter and tracer.
func (s *Server) Exec(ctx context.Context, sql string) (*ResultSet, error) {
	return s.eng.view(s.meter, s.Tracer()).ExecContext(ctx, sql)
}

func (e *Engine) execStmt(ctx context.Context, st sqlparser.Statement, sql string) (*ResultSet, error) {
	sp := e.tracer.Start(obs.CatSQL, "sql").AttrStr("stmt", obs.Truncate(sql, 120))
	rs, err := e.dispatch(ctx, st)
	if rs != nil {
		sp.SetRows(int64(len(rs.Rows)))
	}
	sp.End()
	return rs, err
}

func (e *Engine) dispatch(ctx context.Context, st sqlparser.Statement) (*ResultSet, error) {
	if _, ok := st.(*sqlparser.BuildTree); ok {
		return nil, fmt.Errorf("engine: BUILD TREE %w", ErrNeedsServing)
	}
	e.meter.Charge(sim.CtrSQLStatements, e.meter.Costs().QueryStartup, 1)
	switch s := st.(type) {
	case *sqlparser.Select:
		return e.execSelect(ctx, s)
	case *sqlparser.CreateTable:
		cols := make([]string, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = c.Name
		}
		_, err := e.CreateTable(s.Name, cols)
		return nil, err
	case *sqlparser.Insert:
		return nil, e.execInsert(s)
	case *sqlparser.DropTable:
		return nil, e.DropTable(s.Name)
	case *sqlparser.ScoreTable:
		return e.execScore(s)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

// execScore runs SCORE TABLE t USING model through the
// vectorized scoring operator and materializes its rows, charging result
// transmission like any SELECT.
func (e *Engine) execScore(s *sqlparser.ScoreTable) (*ResultSet, error) {
	t, err := e.Table(s.Table)
	if err != nil {
		return nil, err
	}
	m, err := e.Model(s.Model)
	if err != nil {
		return nil, err
	}
	res, err := e.ScoreTable(t, m)
	if err != nil {
		return nil, err
	}
	rs := res.ResultSet(m)
	e.meter.Charge(sim.CtrRowsTransmitted, e.meter.Costs().RowTransmit, int64(len(rs.Rows)))
	return rs, nil
}

// execInsert appends the statement's rows, all or none: every value is
// checked before the first row is appended. A value must be an integer that
// fits a stored data.Value; narrowing a wider one would store another value.
func (e *Engine) execInsert(s *sqlparser.Insert) error {
	t, err := e.Table(s.Table)
	if err != nil {
		return err
	}
	rows := make([]data.Row, len(s.Rows))
	for ri, exprRow := range s.Rows {
		if len(exprRow) != len(t.Cols) {
			return fmt.Errorf("engine: insert into %q: %d values, want %d", t.Name, len(exprRow), len(t.Cols))
		}
		row := make(data.Row, len(exprRow))
		for i, ex := range exprRow {
			v, err := evalConst(ex)
			if err != nil {
				return err
			}
			if v.Str {
				return fmt.Errorf("engine: insert into %q: string values are not storable (column %s)", t.Name, t.Cols[i])
			}
			if row[i] = data.Value(v.I); int64(row[i]) != v.I {
				return fmt.Errorf("engine: insert into %q: %d is out of range (column %s)", t.Name, v.I, t.Cols[i])
			}
		}
		rows[ri] = row
	}
	for _, row := range rows {
		if err := e.Insert(t, row); err != nil {
			return err
		}
	}
	return nil
}

// evaluator computes an expression over one row of a table.
type evaluator func(data.Row) (Val, error)

// colResolver resolves a column name (possibly qualified) to its position in
// the rows the evaluators receive.
type colResolver interface {
	ColIndex(name string) int
}

// tableCols is a core's colResolver: each column of its one table by bare
// name, by table-qualified name and, when the core names one, by
// alias-qualified name.
type tableCols map[string]int

func newTableCols(t *Table, alias string) tableCols {
	m := make(tableCols, 2*len(t.Cols))
	for i, col := range t.Cols {
		m[col] = i
		m[t.Name+"."+col] = i
		if alias != "" {
			m[alias+"."+col] = i
		}
	}
	return m
}

func (m tableCols) ColIndex(name string) int {
	if i, ok := m[name]; ok {
		return i
	}
	return -1
}

// compileExpr compiles a non-aggregate expression against a column resolver.
// It is an Engine method because CLASSIFY resolves models from the catalog
// and charges scoring costs to the engine's meter.
func (e *Engine) compileExpr(ex sqlparser.Expr, t colResolver) (evaluator, error) {
	switch x := ex.(type) {
	case *sqlparser.IntLit:
		v := Val{I: x.Val}
		return func(data.Row) (Val, error) { return v, nil }, nil
	case *sqlparser.StringLit:
		v := Val{S: x.Val, Str: true}
		return func(data.Row) (Val, error) { return v, nil }, nil
	case *sqlparser.ColumnRef:
		ci := t.ColIndex(x.Name)
		if ci < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", x.Name)
		}
		return func(r data.Row) (Val, error) { return Val{I: int64(r[ci])}, nil }, nil
	case *sqlparser.NotExpr:
		sub, err := e.compileExpr(x.E, t)
		if err != nil {
			return nil, err
		}
		return func(r data.Row) (Val, error) {
			v, err := sub(r)
			if err != nil {
				return Val{}, err
			}
			if v.Str {
				return Val{}, fmt.Errorf("engine: NOT applied to string")
			}
			return Val{I: b2i(v.I == 0)}, nil
		}, nil
	case *sqlparser.BinaryExpr:
		l, err := e.compileExpr(x.L, t)
		if err != nil {
			return nil, err
		}
		r, err := e.compileExpr(x.R, t)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(row data.Row) (Val, error) {
			lv, err := l(row)
			if err != nil {
				return Val{}, err
			}
			rv, err := r(row)
			if err != nil {
				return Val{}, err
			}
			return applyBinary(op, lv, rv)
		}, nil
	case *sqlparser.CaseExpr:
		return e.compileCase(x, t)
	case *sqlparser.ClassifyExpr:
		return e.compileClassify(x, t)
	case *sqlparser.CountStar:
		return nil, fmt.Errorf("engine: aggregate %s in a non-aggregate context", ex)
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", ex)
}

// compileCase compiles a searched CASE: arms evaluate in order, the first
// true condition wins, and a missing ELSE yields 0 (the subset's NULL).
func (e *Engine) compileCase(x *sqlparser.CaseExpr, t colResolver) (evaluator, error) {
	type arm struct{ cond, then evaluator }
	arms := make([]arm, len(x.Whens))
	for i, w := range x.Whens {
		cond, err := e.compileExpr(w.Cond, t)
		if err != nil {
			return nil, err
		}
		then, err := e.compileExpr(w.Then, t)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{cond, then}
	}
	var els evaluator
	if x.Else != nil {
		var err error
		if els, err = e.compileExpr(x.Else, t); err != nil {
			return nil, err
		}
	}
	return func(r data.Row) (Val, error) {
		for _, a := range arms {
			v, err := a.cond(r)
			if err != nil {
				return Val{}, err
			}
			if truthy(v) {
				return a.then(r)
			}
		}
		if els == nil {
			return Val{I: 0}, nil
		}
		return els(r)
	}, nil
}

// compileClassify compiles CLASSIFY(model, a1, ..): resolve the registered
// model once at compile time, then per row assemble the argument vector and
// descend the model's path trie, charging the same per-row scoring costs as
// the vectorized operator (one ScoreRowEval plus one ModelNodeProbe per node
// on the path to the decision node).
func (e *Engine) compileClassify(x *sqlparser.ClassifyExpr, t colResolver) (evaluator, error) {
	m, err := e.Model(x.Model)
	if err != nil {
		return nil, err
	}
	if len(x.Args) != m.Cols {
		return nil, fmt.Errorf("engine: CLASSIFY(%s, ...): %d arguments, model wants %d", x.Model, len(x.Args), m.Cols)
	}
	argEvals := make([]evaluator, len(x.Args))
	for i, a := range x.Args {
		if argEvals[i], err = e.compileExpr(a, t); err != nil {
			return nil, err
		}
	}
	costs := e.meter.Costs()
	row := make(data.Row, len(argEvals))
	return func(r data.Row) (Val, error) {
		for i, ev := range argEvals {
			v, err := ev(r)
			if err != nil {
				return Val{}, err
			}
			if v.Str {
				return Val{}, fmt.Errorf("engine: CLASSIFY(%s, ...): string argument %d", x.Model, i+1)
			}
			row[i] = data.Value(v.I)
		}
		n := m.trie.Descend(row)
		e.meter.Charge(sim.CtrScoreRows, costs.ScoreRowEval, 1)
		e.meter.Charge(sim.CtrModelProbes, costs.ModelNodeProbe, int64(m.depth[n])+1)
		return Val{I: int64(m.Nodes[n].Class)}, nil
	}, nil
}

// evalConst evaluates an expression with no column references.
func evalConst(ex sqlparser.Expr) (Val, error) {
	switch x := ex.(type) {
	case *sqlparser.IntLit:
		return Val{I: x.Val}, nil
	case *sqlparser.StringLit:
		return Val{S: x.Val, Str: true}, nil
	case *sqlparser.BinaryExpr:
		l, err := evalConst(x.L)
		if err != nil {
			return Val{}, err
		}
		r, err := evalConst(x.R)
		if err != nil {
			return Val{}, err
		}
		return applyBinary(x.Op, l, r)
	}
	return Val{}, fmt.Errorf("engine: expression %s is not constant", ex)
}

func applyBinary(op string, l, r Val) (Val, error) {
	switch op {
	case "AND":
		return Val{I: b2i(truthy(l) && truthy(r))}, nil
	case "OR":
		return Val{I: b2i(truthy(l) || truthy(r))}, nil
	}
	if l.Str != r.Str {
		return Val{}, fmt.Errorf("engine: type mismatch in %q comparison", op)
	}
	switch op {
	case "=":
		return Val{I: b2i(l.equal(r))}, nil
	case "<>":
		return Val{I: b2i(!l.equal(r))}, nil
	case "<":
		return Val{I: b2i(l.less(r))}, nil
	case "<=":
		return Val{I: b2i(!r.less(l))}, nil
	case ">":
		return Val{I: b2i(r.less(l))}, nil
	case ">=":
		return Val{I: b2i(!l.less(r))}, nil
	case "+", "-":
		if l.Str || r.Str {
			return Val{}, fmt.Errorf("engine: arithmetic on strings")
		}
		if op == "+" {
			return Val{I: l.I + r.I}, nil
		}
		return Val{I: l.I - r.I}, nil
	}
	return Val{}, fmt.Errorf("engine: unsupported operator %q", op)
}

func truthy(v Val) bool { return !v.Str && v.I != 0 }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// execSelect executes a full Select: each core independently (its own scan —
// the engine does not share scans across UNION arms), their rows concatenated
// in core order (UNION ALL), then LIMIT.
func (e *Engine) execSelect(ctx context.Context, s *sqlparser.Select) (*ResultSet, error) {
	var out *ResultSet
	for i := range s.Cores {
		rs, err := e.execCore(ctx, &s.Cores[i])
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = rs
			continue
		}
		if len(rs.Cols) != len(out.Cols) {
			return nil, fmt.Errorf("engine: UNION arms have %d and %d columns", len(out.Cols), len(rs.Cols))
		}
		out.Rows = append(out.Rows, rs.Rows...)
	}
	if s.Limit >= 0 && int64(len(out.Rows)) > s.Limit {
		out.Rows = out.Rows[:s.Limit]
	}
	// Result rows cross the wire to the caller.
	e.meter.Charge(sim.CtrRowsTransmitted, e.meter.Costs().RowTransmit, int64(len(out.Rows)))
	return out, nil
}

// appendKey appends v's hash-key encoding to key: a type tag, the value and a
// terminator, so the encodings of a value list concatenate unambiguously.
// Grouping keys its map with it, reusing one buffer per scan and looking up
// m[string(key)], which does not allocate.
func appendKey(key []byte, v Val) []byte {
	if v.Str {
		key = append(append(key, 's'), v.S...)
	} else {
		key = strconv.AppendInt(append(key, 'i'), v.I, 10)
	}
	return append(key, 0)
}

// execCore executes one SELECT ... FROM ... WHERE ... GROUP BY block: its
// table's rows are read with WHERE's equality conjuncts pushed down
// (access.go), and what is left of WHERE filters them.
func (e *Engine) execCore(ctx context.Context, c *sqlparser.SelectCore) (*ResultSet, error) {
	tbl, err := e.Table(c.Table)
	if err != nil {
		return nil, err
	}
	// Column resolver for expression compilation; it records the columns
	// the statement reads, which is what the columnar scan decodes.
	t := &usedCols{colResolver: newTableCols(tbl, c.TableAlias), used: make([]bool, len(tbl.Cols))}

	conj, residual := planAccess(t, c.Where)
	var where evaluator
	if residual != nil {
		where, err = e.compileExpr(residual, t)
		if err != nil {
			return nil, err
		}
	}

	// Classify projection items, expand *.
	type item struct {
		name string
		eval evaluator // nil for COUNT(*)
	}
	var items []item
	counted := false
	for _, si := range c.Items {
		if si.Star {
			for _, col := range tbl.Cols {
				ev, _ := e.compileExpr(&sqlparser.ColumnRef{Name: col}, t)
				items = append(items, item{name: col, eval: ev})
			}
			continue
		}
		name := si.Alias
		if name == "" {
			name = si.Expr.String()
		}
		if _, ok := si.Expr.(*sqlparser.CountStar); ok {
			items = append(items, item{name: name})
			counted = true
			continue
		}
		ev, err := e.compileExpr(si.Expr, t)
		if err != nil {
			return nil, err
		}
		items = append(items, item{name: name, eval: ev})
	}
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.name
	}

	grouped := counted || len(c.GroupBy) > 0

	// Group-by key evaluators.
	var groupEvals []evaluator
	for _, g := range c.GroupBy {
		ev, err := e.compileExpr(g, t)
		if err != nil {
			return nil, err
		}
		groupEvals = append(groupEvals, ev)
	}

	// A count-only GROUP BY is aggregated in code space (count.go); t has
	// resolved every column the statement reads.
	if residual == nil {
		if p, ok := countOnly(c, t, tbl); ok {
			rows, err := e.countCodes(ctx, tbl, conj, t.list(), p)
			if err != nil {
				return nil, err
			}
			return &ResultSet{Cols: cols, Rows: rows}, nil
		}
	}

	rs := &ResultSet{Cols: cols}

	// scanSource drives the rows passing WHERE through fn: the pushed-down
	// selection, then the residual filter.
	scanSource := func(fn func(data.Row) error) error {
		filtered := fn
		if where != nil {
			filtered = func(row data.Row) error {
				v, err := where(row)
				if err != nil || !truthy(v) {
					return err
				}
				return fn(row)
			}
		}
		return e.scanRows(ctx, tbl, conj, t.list(), filtered)
	}

	if !grouped {
		err := scanSource(func(row data.Row) error {
			out := make([]Val, len(items))
			for i, it := range items {
				v, err := it.eval(row)
				if err != nil {
					return err
				}
				out[i] = v
			}
			rs.Rows = append(rs.Rows, out)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return rs, nil
	}

	// Grouped execution: hash aggregation. A group holds the values of the
	// scalar items, from its first row, and its COUNT(*); groups come out in
	// the order of their first row.
	type group struct {
		scalars []Val
		n       int64
	}
	var groups []group
	index := make(map[string]int)
	aggCost := e.meter.Costs().SQLAggRow
	var key []byte // the row's group key, reused
	err = scanSource(func(row data.Row) error {
		e.meter.Charge(sim.CtrSQLAggRows, aggCost, 1)
		key = key[:0]
		for _, ge := range groupEvals {
			v, err := ge(row)
			if err != nil {
				return err
			}
			key = appendKey(key, v)
		}
		gi, ok := index[string(key)] // no allocation: the string is made only for a new group
		if !ok {
			var scalars []Val
			for _, it := range items {
				if it.eval != nil {
					v, err := it.eval(row)
					if err != nil {
						return err
					}
					scalars = append(scalars, v)
				}
			}
			gi = len(groups)
			index[string(key)] = gi
			groups = append(groups, group{scalars: scalars})
		}
		groups[gi].n++
		return nil
	})
	if err != nil {
		return nil, err
	}

	// COUNT(*) with no GROUP BY over empty input still yields one row: the
	// count 0, and 0 for the other items too, since the engine has no NULL.
	if len(groups) == 0 && len(groupEvals) == 0 {
		groups = append(groups, group{scalars: make([]Val, len(items))})
	}

	for _, g := range groups {
		out := make([]Val, len(items))
		si := 0
		for i, it := range items {
			if it.eval == nil {
				out[i] = IntVal(g.n)
			} else {
				out[i] = g.scalars[si]
				si++
			}
		}
		rs.Rows = append(rs.Rows, out)
	}
	return rs, nil
}
