package sqlparser

import (
	"fmt"
	"testing"
)

// FuzzParse checks that the parser never panics and that every accepted
// statement round-trips through String() to an equivalent fixed point. The
// seed corpus covers every statement kind, and the refused constructs (CREATE
// INDEX, JOIN, DELETE, HAVING, ORDER BY, DISTINCT, UNION without ALL and the
// aggregates other than COUNT(*)) seed the error path; `go test
// -fuzz=FuzzParse` widens it.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT a, COUNT(*) FROM t WHERE a = 1 AND b <> 2 GROUP BY a HAVING COUNT(*) > 3 ORDER BY a DESC LIMIT 7",
		"SELECT 'str''ing', -5 + 3 FROM t UNION ALL SELECT x, y FROM u",
		"CREATE TABLE t (a INT, b VARCHAR(8))",
		"CREATE INDEX i ON t (a)",
		"INSERT INTO t VALUES (1, 2), (3, 4)",
		"DELETE FROM t WHERE NOT a >= 2",
		"DROP TABLE t",
		"select distinct a from t -- comment\n where a < 1 or b > 2",
		"SELECT SUM(a), MIN(b), MAX(c), AVG(d) FROM t GROUP BY e",
		"((((", "SELECT", "'", "\x00\xff", "WHERE WHERE WHERE",
		"SELECT CASE WHEN a = 1 THEN 0 ELSE 1 END FROM t",
		"SELECT CLASSIFY(m, a, b, c) FROM t",
		"SCORE TABLE t USING m WORKERS 4",
		"BUILD TREE",
		"BUILD TREE MAXDEPTH 6 MINROWS 20 WORKERS 4 MODEL m OUTPUT STATS",
		"build tree output trace model m minrows 20",
		"-- note\nBUILD TREE OUTPUT TREE",
		"BUILD TREE MODEL a-b", "BUILD TREE MAXDEPTH -1", "BUILD TREE MODEL m MODEL m",
		"SELECT model, tree, output, stats FROM build WHERE maxdepth = 1",
		"SELECT a.x, b.y FROM a INNER JOIN b ON a.k = b.k",
		"SELECT 'A1', A1, class, COUNT(*) FROM cases WHERE A2 = 1 GROUP BY class, A1 UNION ALL SELECT 'A3', A3, class, COUNT(*) FROM cases WHERE A2 = 1 GROUP BY class, A3 LIMIT 10",
		"SELECT a FROM t UNION SELECT a FROM u",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := st.String()
		st2, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", sql, printed, err)
		}
		if st2.String() != printed {
			t.Fatalf("render not a fixed point: %q -> %q", printed, st2.String())
		}
	})
}

// FuzzClassifyParse drives the scoring grammar specifically: CASE
// expressions, CLASSIFY() calls and SCORE TABLE statements, assembled from
// fuzz-chosen fragments, must never panic the parser and must round-trip
// whenever accepted.
func FuzzClassifyParse(f *testing.F) {
	f.Add("m", "a", int64(1), 4)
	f.Add("model_1", "col", int64(-7), 0)
	f.Add("", "", int64(0), -1)
	f.Add("END", "WHEN", int64(9), 1<<30)
	f.Add("m'); DROP TABLE t", "a.b.c", int64(1), 2)
	f.Fuzz(func(t *testing.T, model, col string, val int64, workers int) {
		stmts := []string{
			"SELECT CLASSIFY(" + model + ", " + col + ") FROM t",
			"SELECT CASE WHEN " + col + " = " + itoa(val) + " THEN 1 ELSE 0 END FROM t",
			"SELECT CASE WHEN " + col + " = 1 THEN CLASSIFY(" + model + ", " + col + ") END FROM t",
			"SCORE TABLE t USING " + model,
			"SCORE TABLE " + col + " USING " + model + " WORKERS " + itoa(int64(workers)),
		}
		for _, sql := range stmts {
			st, err := Parse(sql)
			if err != nil {
				continue // rejection is fine; panics are not
			}
			printed := st.String()
			st2, err := Parse(printed)
			if err != nil {
				t.Fatalf("accepted %q but rejected own rendering %q: %v", sql, printed, err)
			}
			if st2.String() != printed {
				t.Fatalf("render not a fixed point: %q -> %q", printed, st2.String())
			}
		}
	})
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }
