package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestRandomGroupedQueriesAgainstReference generates random GROUP BY /
// aggregate / HAVING queries and cross-checks the executor against a direct
// in-memory evaluation of the same semantics.
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

	for trial := 0; trial < 80; trial++ {
		groupCol := rng.Intn(4) // 3 attrs + class
		aggCol := rng.Intn(3)
		whereCol := rng.Intn(3)
		whereVal := rng.Intn(4)
		withHaving := rng.Intn(2) == 0
		havingMin := rng.Intn(40)

		gName := ds.Schema.ColName(groupCol)
		aName := ds.Schema.ColName(aggCol)
		wName := ds.Schema.ColName(whereCol)

		sql := fmt.Sprintf("SELECT %s, COUNT(*), SUM(%s) FROM cases WHERE %s <> %d GROUP BY %s",
			gName, aName, wName, whereVal, gName)
		if withHaving {
			sql += fmt.Sprintf(" HAVING COUNT(*) > %d", havingMin)
		}
		sql += fmt.Sprintf(" ORDER BY %s", gName)

		rs, err := e.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}

		// Reference evaluation.
		type agg struct{ n, sum int64 }
		ref := map[data.Value]*agg{}
		for _, r := range ds.Rows {
			if r[whereCol] == data.Value(whereVal) {
				continue
			}
			g := r[groupCol]
			a, ok := ref[g]
			if !ok {
				a = &agg{}
				ref[g] = a
			}
			a.n++
			a.sum += int64(r[aggCol])
		}
		var keys []data.Value
		for k, a := range ref {
			if withHaving && a.n <= int64(havingMin) {
				continue
			}
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		if len(rs.Rows) != len(keys) {
			t.Fatalf("%s: %d groups, want %d", sql, len(rs.Rows), len(keys))
		}
		for i, k := range keys {
			row := rs.Rows[i]
			if row[0].I != int64(k) || row[1].I != ref[k].n || row[2].I != ref[k].sum {
				t.Fatalf("%s: group %d = (%d,%d,%d), want (%d,%d,%d)",
					sql, i, row[0].I, row[1].I, row[2].I, k, ref[k].n, ref[k].sum)
			}
		}
	}
}

// TestRandomUnionQueries cross-checks multi-arm UNION [ALL] row counts.
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
		all := rng.Intn(2) == 0
		var parts []string
		var refRows [][2]int64
		for a := 0; a < arms; a++ {
			v := rng.Intn(3)
			parts = append(parts, fmt.Sprintf("SELECT A1, A2 FROM cases WHERE A1 = %d", v))
			for _, r := range ds.Rows {
				if r[0] == data.Value(v) {
					refRows = append(refRows, [2]int64{int64(r[0]), int64(r[1])})
				}
			}
		}
		sep := " UNION "
		if all {
			sep = " UNION ALL "
		}
		sql := strings.Join(parts, sep)
		rs, err := e.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := len(refRows)
		if !all {
			seen := map[[2]int64]bool{}
			for _, r := range refRows {
				seen[r] = true
			}
			want = len(seen)
		}
		if len(rs.Rows) != want {
			t.Fatalf("%s: %d rows, want %d", sql, len(rs.Rows), want)
		}
	}
}

// stumpModel is a hand-built two-level model over the first two columns: a
// binary root, one leaf, and a multiway node whose unlisted values fall back
// to its majority class — every walk rule CLASSIFY has.
func stumpModel(name string, cols int) *Model {
	return &Model{Name: name, Cols: cols, Classes: 2, Nodes: []ModelNode{
		{Parent: -1, Attr: 0, Val: 0, Kids: []int32{1, 2}, Counts: []int64{5, 5}},
		{Parent: 0, Leaf: true, Attr: -1, Class: 1, Counts: []int64{1, 4}},
		{Parent: 0, Attr: 1, Multiway: true, Vals: []data.Value{0, 1}, Kids: []int32{3, 4}, Counts: []int64{4, 1}},
		{Parent: 2, Leaf: true, Attr: -1, Class: 0, Counts: []int64{3, 0}},
		{Parent: 2, Leaf: true, Attr: -1, Class: 1, Counts: []int64{1, 1}},
	}}
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
	tbl, _ := pt.eng.Table("cases")
	pt.eng.reader(tbl).scanAll(func(r data.Row) bool {
		pt.rows = append(pt.rows, r.Clone())
		return true
	})
	return pt
}

// execColumnar runs sql and asserts that it read its table through the
// columnar scan alone: a row group scanned or skipped, no TID fetched or
// index probed, and no heap page touched in the buffer pool.
func execColumnar(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	before := e.Meter().CounterVec()
	hits, misses := e.bp.Stats()
	rs, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	d := e.Meter().CounterVec().Delta(before)
	if h, m := e.bp.Stats(); d[sim.CtrTIDFetches] != 0 || d[sim.CtrIndexProbes] != 0 || h != hits || m != misses {
		t.Fatalf("%s: %d TID fetches, %d index probes, %d heap pages touched; want none", sql,
			d[sim.CtrTIDFetches], d[sim.CtrIndexProbes], h+m-hits-misses)
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
// projection, CLASSIFY projection, GROUP BY aggregate, aggregate without
// GROUP BY, and the count-only GROUP BY with and without keys — over random
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
		case 2:
			sql = fmt.Sprintf("SELECT %s, COUNT(*), SUM(%s) FROM cases%s GROUP BY %s", bn, an, where, bn)
			at := map[data.Value]int{}
			for _, r := range sel {
				i, ok := at[r[b]]
				if !ok {
					i = len(want)
					at[r[b]] = i
					want = append(want, []Val{IntVal(int64(r[b])), IntVal(0), IntVal(0)})
				}
				want[i][1].I++
				want[i][2].I += int64(r[a])
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
		default:
			sql = fmt.Sprintf("SELECT COUNT(*), MAX(%s) FROM cases%s", an, where)
			row := []Val{IntVal(int64(len(sel))), IntVal(0)}
			for i, r := range sel {
				if i == 0 || int64(r[a]) > row[1].I {
					row[1].I = int64(r[a])
				}
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
		rs = e.MustExec("SELECT COUNT(*), SUM(A2) FROM cases WHERE A3 = 9")
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
