package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// inCodeSpace reports whether execCore runs sql's single core through the
// count-only kernel: its condition, applied to the parsed statement.
func inCodeSpace(t *testing.T, e *Engine, sql string) bool {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	core := &st.(*sqlparser.Select).Cores[0]
	tbl, err := e.Table(core.Table)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	cols := &usedCols{colResolver: newTableCols(tbl, core.TableAlias), used: make([]bool, len(tbl.Cols))}
	_, residual := planAccess(cols, core.Where)
	_, ok := countOnly(core, cols, tbl)
	return residual == nil && ok
}

// runMetered executes sql and returns its result with what it charged.
func runMetered(t *testing.T, e *Engine, sql string) (*ResultSet, sim.CounterVec, time.Duration) {
	t.Helper()
	before, now := e.Meter().CounterVec(), e.Meter().Now()
	rs, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rs, e.Meter().CounterVec().Delta(before), e.Meter().Now() - now
}

// twinEngines loads rows into two identical engines and applies mutate to each.
func twinEngines(t *testing.T, s *data.Schema, rows []data.Row, mutate func(e *Engine)) [2]*Engine {
	t.Helper()
	var twins [2]*Engine
	for i := range twins {
		ds := data.NewDataset(s)
		ds.Rows = rows
		srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			t.Fatal(err)
		}
		if twins[i] = srv.Engine(); mutate != nil {
			mutate(twins[i])
		}
	}
	return twins
}

// randCountStmt draws a count-only statement over the first ncols columns:
// 0–2 GROUP BY columns (a column may repeat), items that are COUNT(*), GROUP BY
// columns and integer literals in random order, some aliased, and 0–3 Eq/Ne
// conjuncts whose literals run past the values rows hold. It returns the
// select list and FROM, the conjuncts, and the GROUP BY clause.
func randCountStmt(rng *rand.Rand, s *data.Schema, ncols int) (sel string, conds []string, group string) {
	keys := make([]string, rng.Intn(3))
	for i := range keys {
		keys[i] = s.ColName(rng.Intn(ncols))
	}
	var items []string
	for _, k := range keys {
		if rng.Intn(3) > 0 {
			items = append(items, k)
		}
	}
	if len(keys) == 0 || rng.Intn(5) > 0 {
		items = append(items, "COUNT(*)")
	}
	if rng.Intn(3) == 0 {
		items = append(items, fmt.Sprint(rng.Intn(100)))
	}
	if len(items) == 0 {
		items = append(items, "COUNT(*)")
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		if rng.Intn(2) == 0 {
			items[i] += fmt.Sprintf(" AS x%d", i)
		}
	}
	conds = make([]string, rng.Intn(4))
	for i := range conds {
		op := "="
		if rng.Intn(3) == 0 {
			op = "<>"
		}
		conds[i] = fmt.Sprintf("%s %s %d", s.ColName(rng.Intn(ncols)), op, rng.Intn(12))
	}
	if len(keys) > 0 {
		group = " GROUP BY " + strings.Join(keys, ", ")
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM cases", conds, group
}

// stmtOf assembles a statement from randCountStmt's parts.
func stmtOf(sel string, conds []string, group string) string {
	if len(conds) > 0 {
		sel += " WHERE " + strings.Join(conds, " AND ")
	}
	return sel + group
}

// checkTwins runs a count-only statement on twins[0], where it must take the
// code-space kernel, and the same statement with a no-op residual conjunct on
// twins[1], where the evaluator path answers it: the two must return the same
// rows in the same order and charge the same counters and virtual time.
func checkTwins(t *testing.T, twins [2]*Engine, sel string, conds []string, group string) (string, [][]Val) {
	t.Helper()
	fast, slow := stmtOf(sel, conds, group), stmtOf(sel, append(conds[:len(conds):len(conds)], "1 = 1"), group)
	if !inCodeSpace(t, twins[0], fast) || inCodeSpace(t, twins[1], slow) {
		t.Fatalf("%s: want it in code space and %s on the evaluator path", fast, slow)
	}
	got, gotCtr, gotNow := runMetered(t, twins[0], fast)
	want, wantCtr, wantNow := runMetered(t, twins[1], slow)
	if fmt.Sprint(got.Cols) != fmt.Sprint(want.Cols) || !sameVals(got.Rows, want.Rows) {
		t.Fatalf("%s: %v %v, evaluator %v %v", fast, got.Cols, head(got.Rows), want.Cols, head(want.Rows))
	}
	if gotCtr != wantCtr || gotNow != wantNow {
		t.Fatalf("%s: charged %v in %v, evaluator %v in %v", fast, gotCtr, gotNow, wantCtr, wantNow)
	}
	return fast, got.Rows
}

// TestCodeSpaceCountsMatchEvaluator is the differential test of the count-only
// kernel: seeded statements answered in code space and by the evaluator path
// on identical engines — over clustered row groups the zone maps skip, groups
// whose dictionaries differ in size, the open tail after Inserts and a table
// dropped and re-created — agree row for row, in order, and charge for charge.
func TestCodeSpaceCountsMatchEvaluator(t *testing.T) {
	s := data.NewSchema(3, 8, 2)
	rng := rand.New(rand.NewSource(61))
	n := 3*storage.RowGroupSize + 700
	rows := make([]data.Row, n)
	for i := range rows {
		g := i / storage.RowGroupSize
		rows[i] = data.Row{
			data.Value(i * 4 / n),         // clustered: most groups miss most values
			data.Value(rng.Intn(2 + 2*g)), // a dictionary that grows group by group
			data.Value(rng.Intn(8)),
			data.Value(rng.Intn(2) * (1 + g)), // the class: two values, not the same two everywhere
		}
	}
	ncols := s.NumCols()
	randomTwins := func(t *testing.T, twins [2]*Engine, trials int) {
		t.Helper()
		for trial := 0; trial < trials; trial++ {
			sel, conds, group := randCountStmt(rng, s, ncols)
			checkTwins(t, twins, sel, conds, group)
		}
	}

	t.Run("clustered", func(t *testing.T) {
		twins := twinEngines(t, s, rows, nil)
		randomTwins(t, twins, 300)

		sql, _ := checkTwins(t, twins, "SELECT A2, COUNT(*) FROM cases", []string{"A1 = 0"}, " GROUP BY A2")
		_, d, _ := runMetered(t, twins[0], sql)
		if d[sim.CtrColGroupsSkipped] == 0 || d[sim.CtrColGroupsScanned] == 0 {
			t.Errorf("%s: %d groups skipped, %d scanned; want some of each", sql, d[sim.CtrColGroupsSkipped], d[sim.CtrColGroupsScanned])
		}
		// No match: a GROUP BY answers no row, an aggregate without one a row
		// of zeros, its literal included.
		for _, tc := range []struct {
			sel   string
			conds []string
			group string
			want  [][]Val
		}{
			{"SELECT A2, COUNT(*) FROM cases", []string{"A3 = 9"}, " GROUP BY A2", nil},
			{"SELECT COUNT(*) FROM cases", []string{"A3 = 9"}, "", [][]Val{{IntVal(0)}}},
			{"SELECT 5, COUNT(*) AS n FROM cases", []string{"A1 = 0", "A1 <> 0"}, "", [][]Val{{IntVal(0), IntVal(0)}}},
		} {
			if sql, got := checkTwins(t, twins, tc.sel, tc.conds, tc.group); !sameVals(got, tc.want) {
				t.Errorf("%s: %v, want %v", sql, got, tc.want)
			}
		}
		// A literal outside int32 stays residual: the evaluator path answers.
		const big = "SELECT A1, COUNT(*) FROM cases WHERE A2 = 4294967297 GROUP BY A1"
		if inCodeSpace(t, twins[0], big) {
			t.Errorf("%s: runs in code space, want the evaluator path", big)
		}
		if rs := twins[0].MustExec(big); len(rs.Rows) != 0 {
			t.Errorf("%s: %v, want no row", big, rs.Rows)
		}
	})

	t.Run("tail-and-recreate", func(t *testing.T) {
		tail := make([]data.Row, 60)
		for i := range tail {
			tail[i] = data.Row{data.Value(rng.Intn(5)), data.Value(9), data.Value(rng.Intn(8)), data.Value(rng.Intn(2))}
		}
		insert := func(e *Engine, rows []data.Row) {
			tbl, _ := e.Table("cases")
			for _, r := range rows {
				if err := e.Insert(tbl, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		twins := twinEngines(t, s, rows[:storage.RowGroupSize+300], func(e *Engine) { insert(e, tail) })
		checkTwins(t, twins, "SELECT A1, COUNT(*) FROM cases", []string{"A2 = 9"}, " GROUP BY A1")
		randomTwins(t, twins, 100)
		// The table dropped and re-created under its name with other rows: a
		// sealed group and an open tail, both built anew.
		var kept []data.Row
		for _, r := range append(rows[:storage.RowGroupSize+300:storage.RowGroupSize+300], tail...) {
			if r[2] != 2 {
				kept = append(kept, r)
			}
		}
		for _, e := range twins {
			e.MustExec("DROP TABLE cases")
			e.MustExec("CREATE TABLE cases (A1 INT, A2 INT, A3 INT, class INT)")
			insert(e, kept)
		}
		randomTwins(t, twins, 100)
	})

	// Dictionaries whose product passes maxCountCells: the statement stays on
	// the evaluator path, and answers the same.
	t.Run("wide", func(t *testing.T) {
		wide := make([]data.Row, storage.RowGroupSize)
		for i := range wide {
			wide[i] = data.Row{data.Value(i % 97), data.Value(i % 89), 0, 0}
		}
		twins := twinEngines(t, s, wide, nil)
		const sql = "SELECT A1, A2, COUNT(*) FROM cases GROUP BY A1, A2"
		if inCodeSpace(t, twins[0], sql) {
			t.Fatalf("%s: %d cells run in code space, want the evaluator path", sql, 97*89)
		}
		if rs := twins[0].MustExec(sql); len(rs.Rows) != storage.RowGroupSize {
			t.Errorf("%s: %d groups, want %d", sql, len(rs.Rows), storage.RowGroupSize)
		}
	})
}
