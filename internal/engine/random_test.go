package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// TestRandomGroupedQueriesAgainstReference generates random GROUP BY queries
// — one to three keys, COUNT(*) or not, sometimes an item that is not a key,
// under a pushed-down or a residual filter — and cross-checks the executor
// against a direct in-memory evaluation: one row per group in the order of its
// first row, a non-key item taking the value of that row. Three keys, a
// residual filter or a non-key item make countOnly decline, so the draws run
// both the code-space count and the evaluator's hash GROUP BY.
func TestRandomGroupedQueriesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := data.NewSchema(3, 4, 3)
	ds := data.NewDataset(s)
	for i := 0; i < 700; i++ {
		ds.Append(data.Row{
			data.Value(rng.Intn(4)), data.Value(rng.Intn(4)),
			data.Value(rng.Intn(4)), data.Value(rng.Intn(3)),
		})
	}
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	e := srv.Engine()
	tbl, _ := e.Table("cases")

	paths := map[bool]int{} // statements by whether countOnly takes them
	for trial := 0; trial < 120; trial++ {
		keys := rng.Perm(4)[:1+rng.Intn(3)] // of the 3 attrs + class
		whereCol, whereVal := rng.Intn(3), data.Value(rng.Intn(4))
		residual := rng.Intn(2) == 0
		extra := -1 // a non-key item
		if rng.Intn(3) == 0 {
			for extra = rng.Intn(4); slices.Contains(keys, extra); extra = rng.Intn(4) {
			}
		}

		// One item per key, in random order, with COUNT(*) among them.
		var items []string
		var cols []int // -1 = COUNT(*)
		for _, k := range rng.Perm(len(keys)) {
			items, cols = append(items, s.ColName(keys[k])), append(cols, keys[k])
		}
		if rng.Intn(4) != 0 {
			at := rng.Intn(len(items) + 1)
			items = append(items[:at], append([]string{"COUNT(*)"}, items[at:]...)...)
			cols = append(cols[:at], append([]int{-1}, cols[at:]...)...)
		}
		if extra >= 0 {
			items, cols = append(items, s.ColName(extra)), append(cols, extra)
		}
		op, keep := "<>", func(v data.Value) bool { return v != whereVal }
		if residual {
			op, keep = "<", func(v data.Value) bool { return v < whereVal }
		}
		groupBy := make([]string, len(keys))
		for i, k := range keys {
			groupBy[i] = s.ColName(k)
		}
		sql := fmt.Sprintf("SELECT %s FROM cases WHERE %s %s %d GROUP BY %s",
			strings.Join(items, ", "), s.ColName(whereCol), op, whereVal, strings.Join(groupBy, ", "))

		st, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		c := &st.(*sqlparser.Select).Cores[0]
		_, ok := countOnly(c, newTableCols(tbl, ""), tbl)
		if ok != (len(keys) < 3 && extra < 0) {
			t.Fatalf("%s: countOnly = %v", sql, ok)
		}
		paths[ok && !residual]++ // execCore asks countOnly only without a residual

		// Reference evaluation.
		var want [][]Val
		at := map[[3]data.Value]int{}
		for _, r := range ds.Rows {
			if !keep(r[whereCol]) {
				continue
			}
			var key [3]data.Value
			for i, k := range keys {
				key[i] = r[k]
			}
			gi, ok := at[key]
			if !ok {
				gi = len(want)
				at[key] = gi
				row := make([]Val, len(cols))
				for i, col := range cols {
					if col >= 0 {
						row[i] = IntVal(int64(r[col]))
					}
				}
				want = append(want, row)
			}
			for i, col := range cols {
				if col < 0 {
					want[gi][i].I++
				}
			}
		}
		rs, err := e.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !sameVals(rs.Rows, want) {
			t.Fatalf("%s: returned %d rows %v, reference has %d %v", sql, len(rs.Rows), head(rs.Rows), len(want), head(want))
		}
	}
	if paths[true] < 10 || paths[false] < 10 {
		t.Fatalf("%d statements counted in code space, %d on the evaluator; want 10+ of each", paths[true], paths[false])
	}
}

// TestRandomUnionQueries cross-checks multi-arm UNION ALL statements — arms
// that project rows or count groups, under an optional LIMIT — against the
// reference arms concatenated in order.
func TestRandomUnionQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := data.NewSchema(2, 3, 2)
	ds := data.NewDataset(s)
	for i := 0; i < 300; i++ {
		ds.Append(data.Row{data.Value(rng.Intn(3)), data.Value(rng.Intn(3)), data.Value(rng.Intn(2))})
	}
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	e := srv.Engine()

	for trial := 0; trial < 40; trial++ {
		arms := rng.Intn(3) + 2
		var parts []string
		var want [][]Val
		for a := 0; a < arms; a++ {
			v := data.Value(rng.Intn(3))
			if rng.Intn(2) == 0 {
				parts = append(parts, fmt.Sprintf("SELECT A1, A2 FROM cases WHERE A1 = %d", v))
				for _, r := range ds.Rows {
					if r[0] == v {
						want = append(want, []Val{IntVal(int64(r[0])), IntVal(int64(r[1]))})
					}
				}
				continue
			}
			parts = append(parts, fmt.Sprintf("SELECT A2, COUNT(*) FROM cases WHERE A1 = %d GROUP BY A2", v))
			at := map[data.Value]int{}
			for _, r := range ds.Rows {
				if r[0] != v {
					continue
				}
				gi, ok := at[r[1]]
				if !ok {
					gi = len(want)
					at[r[1]] = gi
					want = append(want, []Val{IntVal(int64(r[1])), IntVal(0)})
				}
				want[gi][1].I++
			}
		}
		sql := strings.Join(parts, " UNION ALL ")
		if rng.Intn(2) == 0 {
			n := rng.Intn(len(want) + 10)
			sql += fmt.Sprintf(" LIMIT %d", n)
			want = want[:min(n, len(want))]
		}
		rs, err := e.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !sameVals(rs.Rows, want) {
			t.Fatalf("%s: returned %d rows %v, reference has %d %v", sql, len(rs.Rows), head(rs.Rows), len(want), head(want))
		}
	}
}

// stumpModel is a hand-built two-level model over the first two columns: a
// binary root, one leaf, and a multiway node whose unlisted values fall back
// to its majority class — every walk rule CLASSIFY has. It is validated, so
// it can be scored without being registered.
func stumpModel(name string, cols int) *Model {
	m := &Model{Name: name, Cols: cols, Classes: 2, Nodes: []ModelNode{
		{Parent: -1, Attr: 0, Val: 0, Kids: []int32{1, 2}, Counts: []int64{5, 5}},
		{Parent: 0, Leaf: true, Attr: -1, Class: 1, Counts: []int64{1, 4}},
		{Parent: 0, Attr: 1, Multiway: true, Vals: []data.Value{0, 1}, Kids: []int32{3, 4}, Counts: []int64{4, 1}},
		{Parent: 2, Leaf: true, Attr: -1, Class: 0, Counts: []int64{3, 0}},
		{Parent: 2, Leaf: true, Attr: -1, Class: 1, Counts: []int64{1, 1}},
	}}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// pathTable is one table on an engine, plus the rows it holds, in heap
// order, for the in-memory reference.
type pathTable struct {
	rows []data.Row
	eng  *Engine
}

// newPathTable loads rows into an engine and applies mutate (Inserts) to it.
func newPathTable(t *testing.T, s *data.Schema, rows []data.Row, mutate func(e *Engine)) *pathTable {
	t.Helper()
	ds := data.NewDataset(s)
	ds.Rows = rows
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	pt := &pathTable{eng: srv.Engine()}
	if err := pt.eng.RegisterModel(stumpModel("m", s.NumAttrs())); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(pt.eng)
	}
	cur := srv.OpenScan(predicate.MatchAll())
	defer cur.Close()
	for r, ok := cur.Next(); ok; r, ok = cur.Next() {
		pt.rows = append(pt.rows, r.Clone())
	}
	return pt
}

// execColumnar runs sql and asserts that it read its table through the
// columnar scan alone: a row group scanned or skipped, and no TID fetched or
// index probed.
func execColumnar(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	before := e.Meter().CounterVec()
	rs, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	d := e.Meter().CounterVec().Delta(before)
	if d[sim.CtrTIDFetches] != 0 || d[sim.CtrIndexProbes] != 0 {
		t.Fatalf("%s: %d TID fetches, %d index probes; want none", sql, d[sim.CtrTIDFetches], d[sim.CtrIndexProbes])
	}
	if d[sim.CtrColGroupsScanned]+d[sim.CtrColGroupsSkipped] == 0 {
		t.Fatalf("%s: no row group scanned or skipped", sql)
	}
	return rs
}

// conjunct is one generated WHERE conjunct: its SQL and its meaning.
type conjunct struct {
	sql  string
	eval func(data.Row) bool
}

// randConjunct draws one conjunct over the first ncols columns.
func randConjunct(rng *rand.Rand, s *data.Schema, ncols int) conjunct {
	c, c2 := rng.Intn(ncols), rng.Intn(ncols)
	v := int64(rng.Intn(5)) // 4 is absent from every column
	name := s.ColName(c)
	const big = int64(1)<<32 + 1 // narrows to 1, a value rows do hold
	cmp := func(op string, lit int64) func(data.Row) bool {
		return func(r data.Row) bool {
			x := int64(r[c])
			switch op {
			case "=":
				return x == lit
			case "<>":
				return x != lit
			case "<":
				return x < lit
			case "<=":
				return x <= lit
			case ">":
				return x > lit
			}
			return x >= lit
		}
	}
	ops := []string{"=", "=", "=", "<>", "<", "<=", ">", ">="}
	switch k := rng.Intn(12); {
	case k < 8:
		op := ops[k]
		return conjunct{fmt.Sprintf("%s %s %d", name, op, v), cmp(op, v)}
	case k == 8: // the literal on the left: v > col is col < v
		return conjunct{fmt.Sprintf("%d > %s", v, name), cmp("<", v)}
	case k == 9: // a literal outside int32
		op := ops[rng.Intn(len(ops))]
		lit := big
		if rng.Intn(2) == 0 {
			lit = -big
		}
		return conjunct{fmt.Sprintf("%s %s %d", name, op, lit), cmp(op, lit)}
	case k == 10: // a disjunction: residual
		return conjunct{
			fmt.Sprintf("(%s = %d OR %s = 1)", name, v, s.ColName(c2)),
			func(r data.Row) bool { return int64(r[c]) == v || r[c2] == 1 }}
	}
	return conjunct{ // a column-to-column comparison: residual too
		fmt.Sprintf("%s <= %s", name, s.ColName(c2)),
		func(r data.Row) bool { return r[c] <= r[c2] }}
}

// sameVals compares two row lists, in order.
func sameVals(got, want [][]Val) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			return false
		}
	}
	return true
}

// check runs one statement: it must read its table through the columnar scan
// and return the reference rows in heap order.
func (pt *pathTable) check(t *testing.T, sql string, want [][]Val) {
	t.Helper()
	if rs := execColumnar(t, pt.eng, sql); !sameVals(rs.Rows, want) {
		t.Fatalf("%s: returned %d rows %v, reference has %d %v", sql, len(rs.Rows), head(rs.Rows), len(want), head(want))
	}
}

func head(rows [][]Val) [][]Val { return rows[:min(len(rows), 6)] }

// randomStatements drives n generated statements of six shapes — plain
// projection, CLASSIFY projection, COUNT(*) with a non-key item with and
// without GROUP BY (the evaluator's), and the count-only GROUP BY with and
// without keys (code space unless a conjunct is residual) — over random
// conjunctions through check.
func (pt *pathTable) randomStatements(t *testing.T, rng *rand.Rand, s *data.Schema, n int) {
	t.Helper()
	nattrs := s.NumAttrs()
	model := stumpModel("m", s.NumAttrs())
	for trial := 0; trial < n; trial++ {
		conjs := make([]conjunct, rng.Intn(4))
		parts := make([]string, len(conjs))
		for i := range conjs {
			conjs[i] = randConjunct(rng, s, nattrs)
			parts[i] = conjs[i].sql
		}
		where := ""
		if len(parts) > 0 {
			where = " WHERE " + strings.Join(parts, " AND ")
		}
		var sel []data.Row
		for _, r := range pt.rows {
			ok := true
			for _, c := range conjs {
				ok = ok && c.eval(r)
			}
			if ok {
				sel = append(sel, r)
			}
		}
		a, b := rng.Intn(nattrs), rng.Intn(nattrs+1) // b may be the class
		an, bn := s.ColName(a), s.ColName(b)
		var sql string
		var want [][]Val
		switch rng.Intn(6) {
		case 0:
			sql = fmt.Sprintf("SELECT %s, %s FROM cases%s", bn, an, where)
			for _, r := range sel {
				want = append(want, []Val{IntVal(int64(r[b])), IntVal(int64(r[a]))})
			}
		case 1:
			sql = fmt.Sprintf("SELECT %s, CLASSIFY(m, %s, %s, %s) FROM cases%s", an, s.ColName(0), s.ColName(1), s.ColName(2), where)
			for _, r := range sel {
				want = append(want, []Val{IntVal(int64(r[a])), IntVal(int64(model.Predict(r)))})
			}
		case 2: // a non-key item: the evaluator's hash GROUP BY
			sql = fmt.Sprintf("SELECT %s, COUNT(*), %s FROM cases%s GROUP BY %s", bn, an, where, bn)
			at := map[data.Value]int{}
			for _, r := range sel {
				i, ok := at[r[b]]
				if !ok {
					i = len(want)
					at[r[b]] = i
					want = append(want, []Val{IntVal(int64(r[b])), IntVal(0), IntVal(int64(r[a]))})
				}
				want[i][1].I++
			}
		case 4: // count-only: in code space on the columnar path
			sql = fmt.Sprintf("SELECT %s AS k, 7, COUNT(*) AS n, %s FROM cases%s GROUP BY %s, %s", bn, an, where, an, bn)
			at := map[[2]data.Value]int{}
			for _, r := range sel {
				i, ok := at[[2]data.Value{r[a], r[b]}]
				if !ok {
					i = len(want)
					at[[2]data.Value{r[a], r[b]}] = i
					want = append(want, []Val{IntVal(int64(r[b])), IntVal(7), IntVal(0), IntVal(int64(r[a]))})
				}
				want[i][2].I++
			}
		case 5: // count-only without GROUP BY: one row, zeros when nothing matched
			sql = fmt.Sprintf("SELECT COUNT(*), 3 FROM cases%s", where)
			want = [][]Val{{IntVal(int64(len(sel))), IntVal(3)}}
			if len(sel) == 0 {
				want[0][1] = IntVal(0)
			}
		default: // a non-key item without GROUP BY: the evaluator's one group
			sql = fmt.Sprintf("SELECT COUNT(*), %s FROM cases%s", an, where)
			row := []Val{IntVal(int64(len(sel))), IntVal(0)}
			if len(sel) > 0 {
				row[1] = IntVal(int64(sel[0][a]))
			}
			want = [][]Val{row} // one row even when nothing matched
		}
		pt.check(t, sql, want)
	}
}

// TestRandomStatementsOnEveryAccessPath is the differential test of the
// access plan — there is one, the columnar scan with equality conjuncts pushed
// down: random statements checked against an in-memory evaluation, over
// uniform rows, clustered row groups the zone maps skip, and an open tail.
func TestRandomStatementsOnEveryAccessPath(t *testing.T) {
	s := data.NewSchema(3, 4, 2)
	uniform := func(rng *rand.Rand, n int) []data.Row {
		rows := make([]data.Row, n)
		for i := range rows {
			rows[i] = data.Row{data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(2))}
		}
		return rows
	}

	t.Run("uniform", func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		pt := newPathTable(t, s, uniform(rng, 700), nil)
		pt.randomStatements(t, rng, s, 150)
	})

	// Three row groups, the first column clustered in row order: A1 = 0 is
	// absent from the later groups' dictionaries, A1 = 3 from the earlier.
	t.Run("clustered", func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		rows := uniform(rng, 2*storage.RowGroupSize+900)
		for i, r := range rows {
			r[0] = data.Value(i * 4 / len(rows))
		}
		pt := newPathTable(t, s, rows, nil)
		pt.randomStatements(t, rng, s, 60)

		e := pt.eng
		before := e.Meter().CounterVec()
		rs := e.MustExec("SELECT A2 FROM cases WHERE A1 = 0 AND A3 <> 1")
		d := e.Meter().CounterVec().Delta(before)
		if d[sim.CtrColGroupsSkipped] == 0 || d[sim.CtrColGroupsScanned] == 0 || len(rs.Rows) == 0 {
			t.Errorf("clustered lookup: %d groups skipped, %d scanned, %d rows; want some of each",
				d[sim.CtrColGroupsSkipped], d[sim.CtrColGroupsScanned], len(rs.Rows))
		}
		// A literal in no dictionary: every group skipped, nothing read, and
		// an aggregate without GROUP BY still answers its one row.
		before = e.Meter().CounterVec()
		rs = e.MustExec("SELECT COUNT(*), A2 FROM cases WHERE A3 = 9")
		d = e.Meter().CounterVec().Delta(before)
		if d[sim.CtrColGroupsScanned] != 0 || d[sim.CtrServerPages] != 0 || !sameVals(rs.Rows, [][]Val{{IntVal(0), IntVal(0)}}) {
			t.Errorf("absent literal: %d groups scanned, %d pages, rows %v; want none, none, [[0 0]]",
				d[sim.CtrColGroupsScanned], d[sim.CtrServerPages], rs.Rows)
		}
		if rs = e.MustExec("SELECT A1 FROM cases WHERE A3 = 9"); len(rs.Rows) != 0 {
			t.Errorf("absent literal: %d rows, want none", len(rs.Rows))
		}
	})

	// One sealed group, then rows Inserted into the open tail — among them a
	// value no bulk-loaded row has.
	t.Run("tail", func(t *testing.T) {
		rng := rand.New(rand.NewSource(46))
		tail := uniform(rng, 40)
		for _, r := range tail[:10] {
			r[2] = 4
		}
		pt := newPathTable(t, s, uniform(rng, storage.RowGroupSize+200), func(e *Engine) {
			tbl, _ := e.Table("cases")
			for _, r := range tail {
				if err := e.Insert(tbl, r); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got, want := len(pt.rows), storage.RowGroupSize+240; got != want {
			t.Fatalf("%d rows after Insert, want %d", got, want)
		}
		pt.check(t, "SELECT A1, A2 FROM cases WHERE A3 = 4", func() (want [][]Val) {
			for _, r := range tail[:10] {
				want = append(want, []Val{IntVal(int64(r[0])), IntVal(int64(r[1]))})
			}
			return want
		}())
		pt.randomStatements(t, rng, s, 100)
	})
}
