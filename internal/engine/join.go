package engine

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// relation is the row source of one SELECT core: a single table or an inner
// equi-join of two tables. It resolves (possibly alias-qualified) column
// names to positions in the rows it produces and drives those rows through a
// callback.
type relation struct {
	eng   *Engine
	cols  []string       // output names for * expansion
	index map[string]int // name -> position (qualified and unambiguous bare names)

	// The single table (nil for joins): read by its access path (access.go).
	table *Table

	// Join execution state (nil for single tables).
	left, right         *Table
	leftKeys, rightKeys []int          // equi-join key columns (parallel slices)
	residual            sqlparser.Expr // non-equi conjuncts of ON, evaluated on joined rows
}

// ColIndex resolves a column name for expression compilation.
func (r *relation) ColIndex(name string) int {
	if i, ok := r.index[name]; ok {
		return i
	}
	return -1
}

// buildRelation resolves the FROM clause of one core.
func (e *Engine) buildRelation(c *sqlparser.SelectCore) (*relation, error) {
	left, err := e.Table(c.Table)
	if err != nil {
		return nil, err
	}
	if c.Join == nil {
		return &relation{eng: e, table: left, cols: left.Cols, index: singleIndex(left, c.TableAlias)}, nil
	}
	right, err := e.Table(c.Join.Table)
	if err != nil {
		return nil, err
	}
	leftAlias := c.TableAlias
	if leftAlias == "" {
		leftAlias = c.Table
	}
	rightAlias := c.Join.Alias
	if rightAlias == "" {
		rightAlias = c.Join.Table
	}
	if leftAlias == rightAlias {
		return nil, fmt.Errorf("engine: duplicate table alias %q in join", leftAlias)
	}

	rel := &relation{eng: e, left: left, right: right, index: map[string]int{}}
	// Qualified names always resolve; bare names only when unambiguous.
	bare := map[string]int{} // count of tables defining the name
	for _, col := range left.Cols {
		bare[col]++
	}
	for _, col := range right.Cols {
		bare[col]++
	}
	for i, col := range left.Cols {
		rel.index[leftAlias+"."+col] = i
		if bare[col] == 1 {
			rel.index[col] = i
		}
		rel.cols = append(rel.cols, leftAlias+"."+col)
	}
	for i, col := range right.Cols {
		rel.index[rightAlias+"."+col] = len(left.Cols) + i
		if bare[col] == 1 {
			rel.index[col] = len(left.Cols) + i
		}
		rel.cols = append(rel.cols, rightAlias+"."+col)
	}

	// Split ON into equi-join keys and a residual condition.
	if err := rel.analyzeOn(c.Join.On); err != nil {
		return nil, err
	}
	if len(rel.leftKeys) == 0 {
		return nil, fmt.Errorf("engine: JOIN ON must include at least one cross-table equality")
	}
	return rel, nil
}

func singleIndex(t *Table, alias string) map[string]int {
	idx := make(map[string]int, 2*len(t.Cols))
	for i, col := range t.Cols {
		idx[col] = i
		idx[t.Name+"."+col] = i
		if alias != "" {
			idx[alias+"."+col] = i
		}
	}
	return idx
}

// analyzeOn walks the AND-conjunction tree of the ON expression, extracting
// cross-table equality conditions as hash-join keys; everything else becomes
// the residual filter.
func (r *relation) analyzeOn(on sqlparser.Expr) error {
	var residuals []sqlparser.Expr
	var walk func(ex sqlparser.Expr)
	walk = func(ex sqlparser.Expr) {
		if be, ok := ex.(*sqlparser.BinaryExpr); ok {
			if be.Op == "AND" {
				walk(be.L)
				walk(be.R)
				return
			}
			if be.Op == "=" {
				lc, lok := be.L.(*sqlparser.ColumnRef)
				rc, rok := be.R.(*sqlparser.ColumnRef)
				if lok && rok {
					li, ri := r.ColIndex(lc.Name), r.ColIndex(rc.Name)
					if li >= 0 && ri >= 0 && (li < len(r.left.Cols)) != (ri < len(r.left.Cols)) {
						if li < len(r.left.Cols) {
							r.leftKeys = append(r.leftKeys, li)
							r.rightKeys = append(r.rightKeys, ri-len(r.left.Cols))
						} else {
							r.leftKeys = append(r.leftKeys, ri)
							r.rightKeys = append(r.rightKeys, li-len(r.left.Cols))
						}
						return
					}
				}
			}
		}
		residuals = append(residuals, ex)
	}
	walk(on)
	for _, ex := range residuals {
		if r.residual == nil {
			r.residual = ex
		} else {
			r.residual = &sqlparser.BinaryExpr{Op: "AND", L: r.residual, R: ex}
		}
	}
	return nil
}

// iterate drives every row of the join (before WHERE) through fn: it builds a
// hash table on the right table's key columns and probes it with the left
// table's rows, charging one probe per left row and the usual heap scan costs
// for both inputs.
func (r *relation) iterate(fn func(data.Row) error) error {
	e := r.eng
	// Build side: hash the right table on its key columns.
	build := make(map[string][]data.Row)
	var key []byte
	keyOf := func(row data.Row, keys []int) []byte {
		key = key[:0]
		for _, k := range keys {
			key = appendKey(key, Val{I: int64(row[k])})
		}
		return key
	}
	e.reader(r.right).scanAll(func(_ storage.TID, row data.Row) bool {
		k := string(keyOf(row, r.rightKeys))
		build[k] = append(build[k], row.Clone())
		return true
	})

	// Residual filter over joined rows.
	var residual evaluator
	if r.residual != nil {
		ev, err := r.eng.compileExpr(r.residual, r)
		if err != nil {
			return err
		}
		residual = ev
	}

	// Probe side.
	probeCost := e.meter.Costs().IndexProbe
	joined := make(data.Row, len(r.left.Cols)+len(r.right.Cols))
	var ferr error
	e.reader(r.left).scanAll(func(_ storage.TID, lrow data.Row) bool {
		e.meter.Charge(sim.CtrIndexProbes, probeCost, 1)
		matches := build[string(keyOf(lrow, r.leftKeys))]
		for _, rrow := range matches {
			copy(joined, lrow)
			copy(joined[len(r.left.Cols):], rrow)
			if residual != nil {
				v, err := residual(joined)
				if err != nil {
					ferr = err
					return false
				}
				if !truthy(v) {
					continue
				}
			}
			if err := fn(joined); err != nil {
				ferr = err
				return false
			}
		}
		return true
	})
	return ferr
}
