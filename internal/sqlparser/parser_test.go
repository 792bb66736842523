package sqlparser

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	st := mustParse(t, "SELECT a, b FROM t WHERE a = 1")
	s, ok := st.(*Select)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if len(s.Cores) != 1 || s.Cores[0].Table != "t" || len(s.Cores[0].Items) != 2 {
		t.Fatalf("core = %+v", s.Cores[0])
	}
	be, ok := s.Cores[0].Where.(*BinaryExpr)
	if !ok || be.Op != "=" {
		t.Fatalf("where = %v", s.Cores[0].Where)
	}
}

func TestParseCountsQueryShape(t *testing.T) {
	// The §2.3 counts query: per-attribute GROUP BY arms joined by UNION ALL.
	sql := `SELECT 'A1' AS attr_name, A1 AS value, class, COUNT(*)
	        FROM Data_table WHERE A1 = 2 AND A2 <> 0 GROUP BY class, A1
	        UNION ALL
	        SELECT 'A2', A2, class, COUNT(*)
	        FROM Data_table WHERE A1 = 2 AND A2 <> 0 GROUP BY class, A2`
	st := mustParse(t, sql)
	s := st.(*Select)
	if len(s.Cores) != 2 {
		t.Fatalf("%d cores", len(s.Cores))
	}
	if len(s.Cores[0].GroupBy) != 2 {
		t.Errorf("group by = %v", s.Cores[0].GroupBy)
	}
	if s.Cores[0].Items[0].Alias != "attr_name" {
		t.Errorf("alias = %q", s.Cores[0].Items[0].Alias)
	}
	if _, ok := s.Cores[0].Items[3].Expr.(*CountStar); !ok {
		t.Errorf("item 3 = %v", s.Cores[0].Items[3].Expr)
	}
}

func TestParsePrecedence(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3")
	s := st.(*Select)
	or, ok := s.Cores[0].Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", s.Cores[0].Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR = %v", or.R)
	}
	if _, ok := and.R.(*NotExpr); !ok {
		t.Fatalf("right of AND = %v", and.R)
	}
}

func TestParseComparisonOps(t *testing.T) {
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		st := mustParse(t, "SELECT * FROM t WHERE a "+op+" 5")
		be := st.(*Select).Cores[0].Where.(*BinaryExpr)
		if be.Op != op {
			t.Errorf("op %q parsed as %q", op, be.Op)
		}
	}
	// != is normalized to <>.
	st := mustParse(t, "SELECT * FROM t WHERE a != 5")
	if be := st.(*Select).Cores[0].Where.(*BinaryExpr); be.Op != "<>" {
		t.Errorf("!= parsed as %q", be.Op)
	}
}

func TestParseArithmeticAndUnaryMinus(t *testing.T) {
	st := mustParse(t, "SELECT a + 1 - 2 FROM t WHERE a = -3")
	s := st.(*Select)
	if got := s.Cores[0].Items[0].Expr.String(); got != "((a + 1) - 2)" {
		t.Errorf("expr = %q", got)
	}
	be := s.Cores[0].Where.(*BinaryExpr)
	il, ok := be.R.(*IntLit)
	if !ok || il.Val != -3 {
		t.Errorf("rhs = %v", be.R)
	}
}

// refusedByName asserts that Parse refuses sql with a *Error whose message
// contains want.
func refusedByName(t *testing.T, sql, want string) {
	t.Helper()
	_, err := Parse(sql)
	var perr *Error
	if !errors.As(err, &perr) || !strings.Contains(err.Error(), want) {
		t.Errorf("Parse(%q) = %v, want a *Error saying %q", sql, err, want)
	}
}

// TestParseAggregates: COUNT(*) is the one aggregate; the others, and COUNT
// of an expression, are refused by name.
func TestParseAggregates(t *testing.T) {
	st := mustParse(t, "SELECT c, COUNT(*) FROM t GROUP BY c")
	if _, ok := st.(*Select).Cores[0].Items[1].Expr.(*CountStar); !ok {
		t.Error("COUNT(*)")
	}
	for _, fn := range []string{"SUM", "MIN", "MAX", "AVG"} {
		refusedByName(t, "SELECT COUNT(*), "+fn+"(a) FROM t GROUP BY c", fn+" is not supported at line 1 col 18")
	}
	refusedByName(t, "SELECT count(a) FROM t", "COUNT(expr) is not supported at line 1 col 8")
}

// TestParseOrderByAndDistinct: both are refused by name where they stand.
func TestParseOrderByAndDistinct(t *testing.T) {
	refusedByName(t, "SELECT DISTINCT a FROM t", "DISTINCT is not supported at line 1 col 8")
	refusedByName(t, "SELECT a FROM t ORDER BY a DESC, b ASC, c", "ORDER BY is not supported at line 1 col 17")
	refusedByName(t, "SELECT a FROM t UNION ALL SELECT a FROM u order by a", "ORDER BY is not supported at line 1 col 43")
}

func TestParseDDLAndDML(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE t (a INT, b VARCHAR(10), c INT)").(*CreateTable)
	if ct.Name != "t" || len(ct.Cols) != 3 || ct.Cols[1].Type != "VARCHAR" {
		t.Errorf("create table = %+v", ct)
	}
	ins := mustParse(t, "INSERT INTO t VALUES (1, 2, 3), (4, 5, 6)").(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[1]) != 3 {
		t.Errorf("insert = %+v", ins)
	}
	dr := mustParse(t, "DROP TABLE t").(*DropTable)
	if dr.Name != "t" {
		t.Errorf("drop = %+v", dr)
	}
}

func TestParseStringsAndComments(t *testing.T) {
	st := mustParse(t, "SELECT 'it''s', 'x' FROM t -- trailing comment\n WHERE a = 1")
	items := st.(*Select).Cores[0].Items
	if sl := items[0].Expr.(*StringLit); sl.Val != "it's" {
		t.Errorf("escaped string = %q", sl.Val)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	st := mustParse(t, "select a from t where a = 1 group by a")
	if len(st.(*Select).Cores[0].GroupBy) != 1 {
		t.Error("lowercase keywords not recognized")
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a t",
		"FOO BAR",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t trailing junk (",
		"SELECT 'unterminated FROM t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a FLOAT)",
		"INSERT INTO t VALUES",
		"SELECT a FROM t WHERE a @ 1",
		"SELECT a FROM t ORDER",
		"SELECT a FROM t UNION",
		"SELECT a FROM t UNION ALL",
		"SELECT COUNT(*",
		"SELECT COUNT() FROM t",
		"SELECT a FROM t LIMIT -1",
		"BUILD",
		"BUILD TABLE",
		"BUILD TREE FOREST 3",
		"BUILD TREE MAXDEPTH",
		"BUILD TREE MAXDEPTH -1",
		"BUILD TREE MAXDEPTH x",
		"BUILD TREE MAXDEPTH 4294967296",
		"BUILD TREE MINROWS -5",
		"BUILD TREE MINROWS 9223372036854775808",
		"BUILD TREE WORKERS 0",
		"BUILD TREE MODEL",
		"BUILD TREE MODEL 9",
		"BUILD TREE MODEL select",
		"BUILD TREE MODEL a-b",
		"BUILD TREE MODEL 'm'",
		"BUILD TREE OUTPUT",
		"BUILD TREE OUTPUT JSON",
		"BUILD TREE OUTPUT 1",
		"BUILD TREE MAXDEPTH 2 MAXDEPTH 3",
		"BUILD TREE MODEL a OUTPUT TREE MODEL b",
		"BUILD TREE OUTPUT STATS output tree",
		"BUILD TREE MAXDEPTH 2, MINROWS 3",
		"SHOW",
		"SHOW TABLES",
		"SHOW SESSIONS x",
		"CREATE t (a INT)",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) accepted invalid SQL", sql)
		}
	}
	// What the engine does not have is refused by name, not misparsed: every
	// refused keyword stays reserved, so none is read as an alias.
	for _, tc := range []struct{ sql, want string }{
		{"CREATE INDEX i ON t (a)", "CREATE INDEX is not supported at line 1 col 8"},
		{"create index i on t (a)", "CREATE INDEX is not supported"},
		{"SELECT * FROM a JOIN b ON a.k = b.k", "JOIN is not supported at line 1 col 17"},
		{"SELECT x.k FROM a x INNER JOIN b y ON x.k = y.k WHERE x.k = 1", "JOIN is not supported at line 1 col 21"},
		{"SELECT k FROM a UNION ALL SELECT k FROM b join c ON b.k = c.k", "JOIN is not supported"},
		{"DELETE FROM t WHERE a = 1", "DELETE is not supported at line 1 col 1"},
		{"delete from t", "DELETE is not supported"},
		{"SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1", "HAVING is not supported at line 1 col 28"},
		{"SELECT a FROM t HAVING a = 1", "HAVING is not supported"},
		{"select distinct a from t", "DISTINCT is not supported at line 1 col 8"},
		{"SELECT a FROM t ORDER BY a", "ORDER BY is not supported at line 1 col 17"},
		{"SELECT a FROM t UNION SELECT a FROM u", "UNION without ALL is not supported at line 1 col 17"},
		{"SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v", "UNION without ALL is not supported at line 1 col 43"},
		{"SELECT SUM(a) FROM t", "SUM is not supported at line 1 col 8"},
		{"SELECT a FROM t WHERE min(a) = 1", "MIN is not supported"},
		{"SELECT MAX(a) FROM t", "MAX is not supported"},
		{"SELECT AVG(a) FROM t", "AVG is not supported"},
		{"SELECT COUNT(a) FROM t", "COUNT(expr) is not supported at line 1 col 8"},
	} {
		refusedByName(t, tc.sql, tc.want)
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE @")
	if err == nil {
		t.Fatal("no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 2") {
		t.Errorf("error lacks position: %q", msg)
	}
}

// TestRoundTrip: String() output re-parses to a statement that prints
// identically (a fixed point after one round).
func TestRoundTrip(t *testing.T) {
	statements := []string{
		"SELECT a, b AS x, COUNT(*) FROM t WHERE (a = 1 AND b <> 2) OR NOT c < 3 GROUP BY a, b LIMIT 4",
		"SELECT * FROM t",
		"SELECT a FROM t GROUP BY a",
		"SELECT 1 AS attr, A1 AS val, class, COUNT(*) FROM cases WHERE 1 = 1 GROUP BY class, A1 UNION ALL SELECT 2, A2, class, COUNT(*) FROM cases WHERE 1 = 1 GROUP BY class, A2",
		"SELECT 'a''b' FROM t",
		"CREATE TABLE t (a INT, b INT)",
		"INSERT INTO t VALUES (1, 2), (3, 4)",
		"DROP TABLE t",
		"SELECT COUNT(*), d + 1 FROM t GROUP BY d UNION ALL SELECT COUNT(*), 0 FROM t WHERE d = 2 LIMIT 9",
		"BUILD TREE",
		"BUILD TREE MAXDEPTH 6 MINROWS 20 MODEL m OUTPUT STATS",
		"BUILD TREE OUTPUT TRACE MODEL m MINROWS 20 MAXDEPTH 6",
		"BUILD TREE MAXDEPTH 4 OUTPUT explain",
		"build tree maxdepth 0 minrows 0 output tree",
		"-- note\n\nBUILD TREE MODEL output",
		"SHOW SESSIONS",
		"show sessions",
		"SELECT model, tree, output, stats, trace, build, maxdepth, minrows, show, sessions FROM model_m WHERE tree = 1 GROUP BY model, output",
	}
	for _, sql := range statements {
		st1 := mustParse(t, sql)
		printed := st1.String()
		st2 := mustParse(t, printed)
		if st2.String() != printed {
			t.Errorf("round trip diverged:\n  in:  %s\n  1st: %s\n  2nd: %s", sql, printed, st2.String())
		}
	}
}

// TestParseHavingLimitAvg: LIMIT caps the whole statement and round-trips;
// HAVING and AVG are refused by name.
func TestParseHavingLimitAvg(t *testing.T) {
	st := mustParse(t, "SELECT a, COUNT(*) FROM t GROUP BY a UNION ALL SELECT b, COUNT(*) FROM t GROUP BY b LIMIT 5")
	s := st.(*Select)
	if len(s.Cores) != 2 || s.Limit != 5 {
		t.Errorf("cores = %d, limit = %d", len(s.Cores), s.Limit)
	}
	printed := st.String()
	if st2 := mustParse(t, printed); st2.String() != printed {
		t.Errorf("round trip diverged: %s vs %s", printed, st2.String())
	}
	// No-limit statements keep Limit = -1.
	st3 := mustParse(t, "SELECT a FROM t")
	if st3.(*Select).Limit != -1 {
		t.Error("missing LIMIT should be -1")
	}
	if _, err := Parse("SELECT a FROM t LIMIT x"); err == nil {
		t.Error("bad LIMIT accepted")
	}
	refusedByName(t, "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 2 LIMIT 5", "HAVING is not supported")
	refusedByName(t, "SELECT a, AVG(b) FROM t GROUP BY a LIMIT 5", "AVG is not supported")
}

func TestParseCaseExpr(t *testing.T) {
	st := mustParse(t, "SELECT CASE WHEN a = 1 THEN 10 WHEN b = 2 THEN 20 ELSE 30 END FROM t")
	s := st.(*Select)
	ce, ok := s.Cores[0].Items[0].Expr.(*CaseExpr)
	if !ok {
		t.Fatalf("item = %T", s.Cores[0].Items[0].Expr)
	}
	if len(ce.Whens) != 2 || ce.Else == nil {
		t.Fatalf("case = %+v", ce)
	}
	// Nested CASE (the compiled-tree shape) round-trips.
	nested := "SELECT CASE WHEN a = 1 THEN CASE WHEN b = 2 THEN 0 ELSE 1 END ELSE 2 END FROM t"
	printed := mustParse(t, nested).String()
	if mustParse(t, printed).String() != printed {
		t.Errorf("nested CASE round trip diverged: %s", printed)
	}
	// ELSE is optional; a WHEN-less CASE is not.
	st2 := mustParse(t, "SELECT CASE WHEN a = 1 THEN 2 END FROM t")
	if ce2 := st2.(*Select).Cores[0].Items[0].Expr.(*CaseExpr); ce2.Else != nil {
		t.Error("absent ELSE parsed non-nil")
	}
	if _, err := Parse("SELECT CASE ELSE 1 END FROM t"); err == nil {
		t.Error("CASE without WHEN accepted")
	}
	if _, err := Parse("SELECT CASE WHEN a = 1 THEN 2 FROM t"); err == nil {
		t.Error("CASE without END accepted")
	}
}

func TestParseClassify(t *testing.T) {
	st := mustParse(t, "SELECT CLASSIFY(m, a, b + 1, 3) FROM t")
	ce, ok := st.(*Select).Cores[0].Items[0].Expr.(*ClassifyExpr)
	if !ok {
		t.Fatalf("item = %T", st.(*Select).Cores[0].Items[0].Expr)
	}
	if ce.Model != "m" || len(ce.Args) != 3 {
		t.Fatalf("classify = %+v", ce)
	}
	printed := st.String()
	if mustParse(t, printed).String() != printed {
		t.Errorf("round trip diverged: %s", printed)
	}
	// Zero-argument form parses (arity is the engine's concern).
	st2 := mustParse(t, "SELECT CLASSIFY(m) FROM t")
	if ce2 := st2.(*Select).Cores[0].Items[0].Expr.(*ClassifyExpr); len(ce2.Args) != 0 {
		t.Errorf("args = %v", ce2.Args)
	}
	if _, err := Parse("SELECT CLASSIFY() FROM t"); err == nil {
		t.Error("CLASSIFY without model accepted")
	}
}

func TestParseScoreTable(t *testing.T) {
	st := mustParse(t, "SCORE TABLE cases USING m1")
	sc, ok := st.(*ScoreTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if *sc != (ScoreTable{Table: "cases", Model: "m1"}) {
		t.Fatalf("score = %+v", sc)
	}
	if st.String() != "SCORE TABLE cases USING m1" {
		t.Errorf("rendered %q", st.String())
	}
	for _, bad := range []string{
		"SCORE cases USING m1",
		"SCORE TABLE cases m1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestWorkersRefused: a WORKERS clause, on SCORE TABLE or among BUILD TREE's
// options, is refused by name where it stands — every scan is one pass — and
// so is its bare keyword.
func TestWorkersRefused(t *testing.T) {
	refusedByName(t, "SCORE TABLE cases USING m1 WORKERS 4", "WORKERS is not supported at line 1 col 28")
	refusedByName(t, "SCORE TABLE cases USING m1 WORKERS", "WORKERS is not supported at line 1 col 28")
	refusedByName(t, "BUILD TREE WORKERS 2", "WORKERS is not supported at line 1 col 12")
	refusedByName(t, "BUILD TREE MAXDEPTH 3 WORKERS 4 MODEL m", "WORKERS is not supported at line 1 col 23")
	refusedByName(t, "build tree model m workers 8", "WORKERS is not supported at line 1 col 20")
}

func TestParseBuildTree(t *testing.T) {
	full := &BuildTree{MaxDepth: 6, MinRows: 20, Model: "m", Output: OutputTrace}
	// Every order of the four options parses to the same statement.
	opts := []string{"MAXDEPTH 6", "MINROWS 20", "MODEL m", "OUTPUT TRACE"}
	var permute func(k int)
	permute = func(k int) {
		if k == len(opts) {
			sql := "BUILD TREE " + strings.Join(opts, " ")
			if got := mustParse(t, sql).(*BuildTree); *got != *full {
				t.Errorf("%s parsed as %+v", sql, got)
			}
			return
		}
		for i := k; i < len(opts); i++ {
			opts[k], opts[i] = opts[i], opts[k]
			permute(k + 1)
			opts[k], opts[i] = opts[i], opts[k]
		}
	}
	permute(0)
	if got := full.String(); got != "BUILD TREE MAXDEPTH 6 MINROWS 20 MODEL m OUTPUT TRACE" {
		t.Errorf("rendered %q", got)
	}

	// Words are case-insensitive, the model name keeps its case, and absent
	// options stay zero.
	got := mustParse(t, "-- leading comment\n\n  build Tree mInRows 7 model Mx output tree").(*BuildTree)
	if want := (BuildTree{MinRows: 7, Model: "Mx", Output: OutputTree}); *got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if got := mustParse(t, "build tree output Explain").(*BuildTree); got.Output != OutputExplain {
		t.Errorf("OUTPUT Explain parsed as %+v", got)
	}
	if got := mustParse(t, "BUILD TREE").(*BuildTree); *got != (BuildTree{}) {
		t.Errorf("bare BUILD TREE parsed as %+v", got)
	}

	// The option words are not reserved: they name a model, and columns and
	// tables elsewhere in the grammar.
	if got := mustParse(t, "BUILD TREE MODEL output OUTPUT stats").(*BuildTree); got.Model != "output" || got.Output != OutputStats {
		t.Errorf("parsed %+v", got)
	}
	sel := mustParse(t, "SELECT model, tree, output, stats FROM build WHERE maxdepth = 1").(*Select)
	if len(sel.Cores[0].Items) != 4 || sel.Cores[0].Table != "build" {
		t.Errorf("select over option-word names = %+v", sel.Cores[0])
	}

	// Rejections carry a position.
	_, err := Parse("BUILD TREE MAXDEPTH 2\nMODEL 9")
	var perr *Error
	if !errors.As(err, &perr) || !strings.Contains(err.Error(), "line 2 col 7") {
		t.Errorf("MODEL 9: error %v, want a positioned *Error at line 2 col 7", err)
	}
}
