package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/sqlparser"
)

func newEngine() *Engine { return New(sim.NewDefaultMeter(), 0) }

func seedTable(t *testing.T, e *Engine) *Table {
	t.Helper()
	tbl, err := e.CreateTable("t", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	rows := []data.Row{
		{1, 10, 0},
		{2, 20, 1},
		{1, 30, 0},
		{3, 10, 1},
		{2, 10, 0},
	}
	if err := e.BulkLoad(tbl, rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func queryInts(t *testing.T, e *Engine, sql string) [][]int64 {
	t.Helper()
	rs, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	out := make([][]int64, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = make([]int64, len(r))
		for j, v := range r {
			if v.Str {
				t.Fatalf("unexpected string value %q", v.S)
			}
			out[i][j] = v.I
		}
	}
	return out
}

func TestSelectWhereProjection(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT a, b FROM t WHERE c = 0 AND b >= 10")
	want := [][]int64{{1, 10}, {1, 30}, {2, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSelectStar(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	rs, err := e.Exec("SELECT * FROM t WHERE a = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Cols, []string{"a", "b", "c"}) {
		t.Errorf("cols = %v", rs.Cols)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][1].I != 10 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestGroupByCount(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	// Groups come out in the order of their first row.
	got := queryInts(t, e, "SELECT a, COUNT(*) FROM t GROUP BY a")
	want := [][]int64{{1, 2}, {2, 2}, {3, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestAggregates: COUNT(*) is the one aggregate. Without GROUP BY it answers
// one row, over an empty selection too, where its other items are 0 — on the
// code-space path and on the evaluator's (a residual filter).
func TestAggregates(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	for _, tc := range []struct {
		sql  string
		want [][]int64
	}{
		{"SELECT COUNT(*) FROM t", [][]int64{{5}}},
		{"SELECT COUNT(*), 7 FROM t WHERE a = 9", [][]int64{{0, 0}}},
		{"SELECT COUNT(*), 7 FROM t WHERE b < a", [][]int64{{0, 0}}},
		{"SELECT COUNT(*), a FROM t WHERE b > 10", [][]int64{{2, 2}}},
		{"SELECT COUNT(*) AS n, c FROM t WHERE a <= 2 GROUP BY c", [][]int64{{3, 0}, {1, 1}}},
	} {
		if got := queryInts(t, e, tc.sql); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.sql, got, tc.want)
		}
	}
	if _, err := e.Exec("SELECT COUNT(*) + 1 FROM t"); err == nil {
		t.Error("COUNT(*) inside an expression accepted")
	}
}

func TestGroupByMultipleKeysWithScalar(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT c, b, COUNT(*) FROM t GROUP BY c, b")
	want := [][]int64{{0, 10, 2}, {1, 20, 1}, {0, 30, 1}, {1, 10, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestUnionAndUnionAll: UNION ALL concatenates its arms in order, duplicates
// kept; UNION without ALL is refused.
func TestUnionAndUnionAll(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	all := queryInts(t, e, "SELECT a FROM t WHERE c = 0 UNION ALL SELECT b FROM t WHERE c = 1")
	want := [][]int64{{1}, {1}, {2}, {20}, {10}}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("UNION ALL rows = %v, want %v", all, want)
	}
	if _, err := e.Exec("SELECT a FROM t WHERE c = 0 UNION SELECT a FROM t WHERE c = 0"); err == nil {
		t.Error("UNION without ALL accepted")
	}
}

// TestDistinct: a GROUP BY without aggregate gives the distinct values, in the
// order of their first row; DISTINCT itself is refused.
func TestDistinct(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	if got := queryInts(t, e, "SELECT c FROM t GROUP BY c"); !reflect.DeepEqual(got, [][]int64{{0}, {1}}) {
		t.Errorf("got %v", got)
	}
	if got := queryInts(t, e, "SELECT b FROM t WHERE b <> 30 GROUP BY b"); !reflect.DeepEqual(got, [][]int64{{10}, {20}}) {
		t.Errorf("got %v", got)
	}
	if _, err := e.Exec("SELECT DISTINCT c FROM t"); err == nil {
		t.Error("DISTINCT accepted")
	}
}

// TestOrderByDesc: without ORDER BY, which is refused, rows come in heap order.
func TestOrderByDesc(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	if got := queryInts(t, e, "SELECT b FROM t WHERE a = 1"); !reflect.DeepEqual(got, [][]int64{{10}, {30}}) {
		t.Errorf("got %v", got)
	}
	if _, err := e.Exec("SELECT b FROM t WHERE a = 1 ORDER BY b DESC"); err == nil {
		t.Error("ORDER BY accepted")
	}
}

// TestLimit: LIMIT caps the combined rows of every core.
func TestLimit(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT b FROM t LIMIT 2")
	want := [][]int64{{10}, {20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := queryInts(t, e, "SELECT b FROM t LIMIT 0"); len(got) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(got))
	}
	// LIMIT larger than the result is a no-op.
	if got := queryInts(t, e, "SELECT b FROM t LIMIT 100"); len(got) != 5 {
		t.Errorf("LIMIT 100 returned %d rows", len(got))
	}
	got = queryInts(t, e, "SELECT a, COUNT(*) FROM t GROUP BY a UNION ALL SELECT c, COUNT(*) FROM t GROUP BY c LIMIT 4")
	if want := [][]int64{{1, 2}, {2, 2}, {3, 1}, {0, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("LIMIT over UNION ALL: got %v, want %v", got, want)
	}
}

func TestStringLiteralProjection(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	rs, err := e.Exec("SELECT 'attr_a' AS attr_name, a, COUNT(*) FROM t GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Rows[0][0].Str || rs.Rows[0][0].S != "attr_a" {
		t.Errorf("string literal = %v", rs.Rows[0][0])
	}
	if rs.Cols[0] != "attr_name" {
		t.Errorf("alias = %q", rs.Cols[0])
	}
}

// TestInsertAndDelete: INSERT appends in order, all of a statement's rows or
// none — a statement with a bad value anywhere changes nothing; DELETE is
// refused — tables are append-only — and leaves the rows as they were.
func TestInsertAndDelete(t *testing.T) {
	e := newEngine()
	e.MustExec("CREATE TABLE u (x INT, y INT)")
	e.MustExec("INSERT INTO u VALUES (1, 2), (3, 4), (5, 6)")
	if got := queryInts(t, e, "SELECT COUNT(*) FROM u"); got[0][0] != 3 {
		t.Fatalf("count = %d", got[0][0])
	}
	e.MustExec("INSERT INTO u VALUES (7, 8)")
	want := [][]int64{{1}, {3}, {5}, {7}}
	if got := queryInts(t, e, "SELECT x FROM u"); !reflect.DeepEqual(got, want) {
		t.Errorf("after a second INSERT: %v, want the rows in insertion order", got)
	}
	if _, err := e.Exec("DELETE FROM u WHERE x = 3"); err == nil || !strings.Contains(err.Error(), "DELETE is not supported") {
		t.Errorf("DELETE: error %v, want it refused by name", err)
	}
	if got := queryInts(t, e, "SELECT x FROM u"); !reflect.DeepEqual(got, want) {
		t.Errorf("after a refused DELETE: %v, want %v", got, want)
	}
	for _, sql := range []string{
		"INSERT INTO u VALUES (4294967297, 2)",
		"INSERT INTO u VALUES (1, -2147483649)",
		"INSERT INTO u VALUES (9, 9), (2147483647 + 1, 9)",
		"INSERT INTO u VALUES (9, 9), ('x', 3)",
		"INSERT INTO u VALUES (9, 9), (3)",
		"INSERT INTO u VALUES (9, 9), (1, 2, 3)",
		"INSERT INTO u VALUES (9, 9), (1, y)",
	} {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("%s: accepted", sql)
		}
		if got := queryInts(t, e, "SELECT x FROM u"); !reflect.DeepEqual(got, want) {
			t.Errorf("after a refused %s: %v, want %v", sql, got, want)
		}
	}
	e.MustExec("INSERT INTO u VALUES (2147483647, -2147483648)")
	if got := queryInts(t, e, "SELECT x, y FROM u WHERE x = 2147483647"); !reflect.DeepEqual(got, [][]int64{{2147483647, -2147483648}}) {
		t.Errorf("int32 bounds stored as %v", got)
	}
}

// TestQualifiedNamesOnSingleTable: a core's columns resolve by bare name, by
// table-qualified name and by the core's alias.
func TestQualifiedNamesOnSingleTable(t *testing.T) {
	e := newEngine()
	e.MustExec("CREATE TABLE orders (id INT, cust INT, amount INT)")
	e.MustExec("INSERT INTO orders VALUES (1, 10, 5), (2, 10, 7), (3, 20, 3), (4, 30, 9)")
	got := queryInts(t, e, "SELECT orders.amount FROM orders WHERE orders.cust = 10")
	want := [][]int64{{5}, {7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// Alias form too.
	got2 := queryInts(t, e, "SELECT o.amount FROM orders o WHERE o.cust = 20")
	if !reflect.DeepEqual(got2, [][]int64{{3}}) {
		t.Errorf("alias form = %v", got2)
	}
}

func TestDropTable(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	e.MustExec("DROP TABLE t")
	if _, err := e.Exec("SELECT * FROM t"); err == nil {
		t.Error("query on dropped table succeeded")
	}
	if _, err := e.Exec("DROP TABLE t"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestCreateTableErrors(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	if _, err := e.CreateTable("t", []string{"x"}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := e.CreateTable("u", nil); err == nil {
		t.Error("zero-column table accepted")
	}
	if _, err := e.CreateTable("u", []string{"x", "x"}); err == nil {
		t.Error("duplicate column accepted")
	}
}

// TestHavingErrors: HAVING and every other construct the executor does not
// have are refused at parse time with a *sqlparser.Error that names them, in
// process on both statement entries; nothing is charged and the engine answers
// the next statement.
func TestHavingErrors(t *testing.T) {
	srv, err := NewServer(newEngine(), "cases", tailTestData())
	if err != nil {
		t.Fatal(err)
	}
	e := srv.Engine()
	for _, tc := range []struct{ sql, want string }{
		{"SELECT A1, COUNT(*) FROM cases GROUP BY A1 HAVING COUNT(*) > 1", "HAVING is not supported"},
		{"SELECT DISTINCT A1 FROM cases", "DISTINCT is not supported"},
		{"SELECT A1 FROM cases ORDER BY A1 DESC", "ORDER BY is not supported"},
		{"SELECT A1 FROM cases UNION SELECT A2 FROM cases", "UNION without ALL is not supported"},
		{"SELECT SUM(A1) FROM cases", "SUM is not supported"},
		{"SELECT MIN(A1) FROM cases", "MIN is not supported"},
		{"SELECT MAX(A1) FROM cases", "MAX is not supported"},
		{"SELECT AVG(A1) FROM cases", "AVG is not supported"},
		{"SELECT COUNT(A1) FROM cases", "COUNT(expr) is not supported"},
	} {
		for _, entry := range []struct {
			name string
			exec func(string) (*ResultSet, error)
		}{
			{"Engine.Exec", e.Exec},
			{"Server.Exec", func(sql string) (*ResultSet, error) { return srv.Exec(context.Background(), sql) }},
		} {
			name, exec := entry.name, entry.exec
			before, t0 := e.Meter().CounterVec(), e.Meter().Now()
			_, err := exec(tc.sql)
			var perr *sqlparser.Error
			if !errors.As(err, &perr) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s(%q) = %v, want a *sqlparser.Error saying %q", name, tc.sql, err, tc.want)
			}
			if d := e.Meter().CounterVec().Delta(before); d != (sim.CounterVec{}) || e.Meter().Now() != t0 {
				t.Errorf("%s(%q): a refused statement charged %v", name, tc.sql, d)
			}
			if got := queryInts(t, e, "SELECT COUNT(*) FROM cases"); got[0][0] != 6144 {
				t.Fatalf("after %s: COUNT(*) = %d", tc.sql, got[0][0])
			}
		}
	}
}

func TestExecErrors(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	for _, sql := range []string{
		"SELECT nope FROM t",
		"SELECT a FROM missing",
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t VALUES ('s', 1, 2)",
		"SELECT a FROM t WHERE a = 'x'",
		"SELECT a + 'x' FROM t",
		"SELECT a FROM t UNION ALL SELECT a, b FROM t",
		"SELECT COUNT(*) FROM t WHERE COUNT(*) = 1",
	} {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded", sql)
		}
	}
}

// TestStatementSpansEnd runs each kind of statement under a tracer and checks
// that every span it opened has ended, refusals and errors included. A span
// left open changes no result, counter or clock, so nothing else notices it.
// "empty text" is a statement whose source text is empty, as ExecStmt may be
// handed.
func TestStatementSpansEnd(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		noText    bool
		wantErr   bool
	}{
		{name: "create", sql: "CREATE TABLE u (x INT, y INT)"},
		{name: "insert", sql: "INSERT INTO t VALUES (4, 40, 1)"},
		{name: "select", sql: "SELECT a, COUNT(*) FROM t GROUP BY a"},
		{name: "empty result", sql: "SELECT a FROM t WHERE a = 9"},
		{name: "empty text", sql: "SELECT a FROM t", noText: true},
		{name: "drop", sql: "DROP TABLE t"},
		{name: "score", sql: "SCORE TABLE t USING m"},
		{name: "refused build", sql: "BUILD TREE MAXDEPTH 2", wantErr: true},
		{name: "unsupported", sql: "SHOW SESSIONS", wantErr: true},
		{name: "failing", sql: "SELECT nope FROM t", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine()
			seedTable(t, e)
			leaf := &Model{Name: "m", Cols: 2, Classes: 2, Nodes: []ModelNode{
				{Parent: -1, Leaf: true, Attr: -1, Counts: []int64{3, 2}},
			}}
			if err := e.RegisterModel(leaf); err != nil {
				t.Fatal(err)
			}
			col := obs.NewTrace()
			e.SetTracer(col.Proc("stmt", e.Meter()))
			st, err := sqlparser.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			text := tc.sql
			if tc.noText {
				text = ""
			}
			if _, err := e.ExecStmt(st, text); (err != nil) != tc.wantErr {
				t.Fatalf("ExecStmt(%q): err = %v, want an error: %v", tc.sql, err, tc.wantErr)
			}
			n := 0
			col.EachProc(func(pv obs.ProcView) {
				for _, sp := range pv.Spans {
					n++
					if sp.Deltas == nil {
						t.Errorf("%s span %q was never ended", sp.Cat, sp.Name)
					}
				}
			})
			if n == 0 {
				t.Error("the statement opened no span")
			}
		})
	}
}

func TestUnionArmsEachScan(t *testing.T) {
	// The engine must NOT share scans across UNION arms (§2.3: optimizers
	// do not exploit the commonality) — the middleware's whole reason to
	// exist. Verify pages read scale with the number of arms.
	costOf := func(arms int) int64 {
		// The server has no buffer cache: each arm's scan re-reads its pages.
		e := New(sim.NewDefaultMeter(), 0)
		tbl, _ := e.CreateTable("w", []string{"a", "b"})
		var rows []data.Row
		for i := 0; i < 30000; i++ {
			rows = append(rows, data.Row{data.Value(i % 4), data.Value(i % 7)})
		}
		e.BulkLoad(tbl, rows)
		sql := ""
		for i := 0; i < arms; i++ {
			if i > 0 {
				sql += " UNION ALL "
			}
			sql += fmt.Sprintf("SELECT %d, a, COUNT(*) FROM w GROUP BY a", i)
		}
		e.MustExec(sql)
		return e.Meter().Count(sim.CtrServerPages)
	}
	one, four := costOf(1), costOf(4)
	if four < 4*one {
		t.Errorf("4 arms read %d pages, 1 arm %d; arms must scan independently", four, one)
	}
}

func TestQueryStartupChargedPerStatement(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	before := e.Meter().Count(sim.CtrSQLStatements)
	e.MustExec("SELECT a FROM t")
	e.MustExec("SELECT b FROM t")
	if got := e.Meter().Count(sim.CtrSQLStatements) - before; got != 2 {
		t.Errorf("statements = %d, want 2", got)
	}
}

// --- Server cursor surface ---

func testDataset(n int, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	s := data.NewSchema(3, 4, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		ds.Append(data.Row{
			data.Value(rng.Intn(4)), data.Value(rng.Intn(4)),
			data.Value(rng.Intn(4)), data.Value(rng.Intn(2)),
		})
	}
	return ds
}

func newTestServer(t *testing.T, n int) (*Server, *data.Dataset) {
	t.Helper()
	ds := testDataset(n, 7)
	srv, err := NewServer(newEngine(), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ds
}

func collect(c Cursor) []data.Row {
	var out []data.Row
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, r.Clone())
	}
	c.Close()
	return out
}

func TestScanCursorFilterExact(t *testing.T) {
	srv, ds := newTestServer(t, 500)
	filter := predicate.Or(
		predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
		predicate.Conj{{Attr: 1, Op: predicate.Ne, Val: 2}, {Attr: 2, Op: predicate.Eq, Val: 3}},
	)
	got := collect(srv.OpenScan(filter))
	var want []data.Row
	for _, r := range ds.Rows {
		if filter.Eval(r) {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("cursor returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Exactly the matching rows were transmitted.
	if tx := srv.Meter().Count(sim.CtrRowsTransmitted); tx != int64(len(want)) {
		t.Errorf("transmitted %d rows, want %d", tx, len(want))
	}
	// But every row was evaluated at the server.
	if ev := srv.Meter().Count(sim.CtrServerRows); ev != int64(ds.N()) {
		t.Errorf("evaluated %d rows, want %d", ev, ds.N())
	}
}

func TestScanCursorMatchAllAndCloseEarly(t *testing.T) {
	srv, ds := newTestServer(t, 100)
	c := srv.OpenScan(predicate.MatchAll())
	r, ok := c.Next()
	if !ok || len(r) != ds.Schema.NumCols() {
		t.Fatal("first row missing")
	}
	c.Close()
	if _, ok := c.Next(); ok {
		t.Error("Next after Close returned a row")
	}
}

func TestKeysetCursor(t *testing.T) {
	srv, ds := newTestServer(t, 400)
	base := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 2}})
	ks := captured(t)(srv.OpenKeyset(context.Background(), base))
	var wantN int
	for _, r := range ds.Rows {
		if base.Eval(r) {
			wantN++
		}
	}
	if ks.Size() != wantN {
		t.Fatalf("keyset size %d, want %d", ks.Size(), wantN)
	}

	// Without a stored procedure every keyset row is transmitted.
	before := srv.Meter().Count(sim.CtrRowsTransmitted)
	all := scanPart(srv, ks, predicate.MatchAll(), 0, 1, nil)
	if len(all) != wantN {
		t.Errorf("keyset scan returned %d rows", len(all))
	}
	if got := srv.Meter().Count(sim.CtrRowsTransmitted) - before; got != int64(wantN) {
		t.Errorf("transmitted %d, want %d", got, wantN)
	}

	// With a stored-procedure filter only the narrowed subset crosses.
	narrow := predicate.Or(predicate.Conj{
		{Attr: 0, Op: predicate.Eq, Val: 2}, {Attr: 1, Op: predicate.Eq, Val: 1},
	})
	before = srv.Meter().Count(sim.CtrRowsTransmitted)
	sub := scanPart(srv, ks, narrow, 0, 1, nil)
	var wantSub int
	for _, r := range ds.Rows {
		if narrow.Eval(r) {
			wantSub++
		}
	}
	if len(sub) != wantSub {
		t.Errorf("sproc scan returned %d rows, want %d", len(sub), wantSub)
	}
	if got := srv.Meter().Count(sim.CtrRowsTransmitted) - before; got != int64(wantSub) {
		t.Errorf("sproc transmitted %d, want %d", got, wantSub)
	}
}

func TestTIDJoin(t *testing.T) {
	srv, ds := newTestServer(t, 400)
	base := predicate.Or(predicate.Conj{{Attr: 2, Op: predicate.Ne, Val: 0}})
	tt := captured(t)(srv.CopyTIDs(context.Background(), base))
	narrow := predicate.Or(predicate.Conj{
		{Attr: 2, Op: predicate.Ne, Val: 0}, {Attr: 0, Op: predicate.Eq, Val: 1},
	})
	got := scanPart(srv, tt, narrow, 0, 1, nil)
	var want int
	for _, r := range ds.Rows {
		if narrow.Eval(r) {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("TID join returned %d rows, want %d", len(got), want)
	}
	if probes := srv.Meter().Count(sim.CtrIndexProbes); probes != int64(tt.Size()) {
		t.Errorf("TID join probed %d times, want %d", probes, tt.Size())
	}
}

func TestCopySubset(t *testing.T) {
	srv, ds := newTestServer(t, 300)
	f := predicate.Or(predicate.Conj{{Attr: 1, Op: predicate.Eq, Val: 0}})
	sub, err := srv.CopySubset(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range ds.Rows {
		if f.Eval(r) {
			want++
		}
	}
	if sub.NumRows() != want {
		t.Errorf("subset has %d rows, want %d", sub.NumRows(), want)
	}
	// Scanning the subset returns only matching rows.
	got := collect(sub.OpenScan(predicate.MatchAll()))
	if int64(len(got)) != want {
		t.Errorf("subset scan returned %d rows", len(got))
	}
	if err := sub.Drop(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Engine().Exec("SELECT * FROM " + sub.TableName()); err == nil {
		t.Error("dropped temp table still queryable")
	}
}

func TestServerAccessors(t *testing.T) {
	srv, ds := newTestServer(t, 100)
	if srv.NumRows() != int64(ds.N()) {
		t.Error("NumRows")
	}
	if srv.Schema() != ds.Schema {
		t.Error("Schema")
	}
	if srv.TableName() != "cases" {
		t.Error("TableName")
	}
	if srv.DataBytes() <= 0 {
		t.Error("DataBytes")
	}
}

// TestSelectAgainstReference cross-checks the executor against a direct
// in-memory evaluation for randomized conjunctive/disjunctive predicates.
func TestSelectAgainstReference(t *testing.T) {
	srv, ds := newTestServer(t, 800)
	e := srv.Engine()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		a1 := rng.Intn(3)
		v1 := rng.Intn(4)
		a2 := rng.Intn(3)
		v2 := rng.Intn(4)
		op2 := "="
		if rng.Intn(2) == 0 {
			op2 = "<>"
		}
		comb := "AND"
		if rng.Intn(2) == 0 {
			comb = "OR"
		}
		sql := fmt.Sprintf("SELECT COUNT(*) FROM cases WHERE A%d = %d %s A%d %s %d",
			a1+1, v1, comb, a2+1, op2, v2)
		got := queryInts(t, e, sql)[0][0]
		var want int64
		for _, r := range ds.Rows {
			c1 := r[a1] == data.Value(v1)
			c2 := r[a2] == data.Value(v2)
			if op2 == "<>" {
				c2 = !c2
			}
			m := c1 && c2
			if comb == "OR" {
				m = c1 || c2
			}
			if m {
				want++
			}
		}
		if got != want {
			t.Fatalf("%s: got %d, want %d", sql, got, want)
		}
	}
}

func TestValOrdering(t *testing.T) {
	a, b := IntVal(1), IntVal(2)
	if !a.less(b) || b.less(a) || !a.equal(IntVal(1)) {
		t.Error("int ordering")
	}
	s1, s2 := StrVal("a"), StrVal("b")
	if !s1.less(s2) || s2.less(s1) {
		t.Error("string ordering")
	}
	if !a.less(s1) || s1.less(a) {
		t.Error("ints must order before strings")
	}
	if a.String() != "1" || s1.String() != "a" {
		t.Error("String()")
	}
}

func TestResultSetString(t *testing.T) {
	rs := &ResultSet{Cols: []string{"x", "long"}, Rows: [][]Val{{IntVal(1), StrVal("v")}}}
	s := rs.String()
	if s == "" || s[0] != 'x' {
		t.Errorf("render = %q", s)
	}
}

// MustExec executes sql and panics on error: test setup.
func (e *Engine) MustExec(sql string) *ResultSet {
	rs, err := e.Exec(sql)
	if err != nil {
		panic(err)
	}
	return rs
}
