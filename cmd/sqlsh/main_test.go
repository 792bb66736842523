package main

import (
	"database/sql"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	_ "repro/driver" // registers the ccsql database/sql driver
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Script mode: a failing statement mid-script must be reported on stderr,
// later statements must still run by default, and the exit status (the
// returned error) must be nonzero.
func TestScriptErrorContinuesAndFailsExit(t *testing.T) {
	script := strings.Join([]string{
		"SELECT FROM nonsense",
		"SELECT income, COUNT(*) FROM cases GROUP BY income",
	}, "\n")
	var out, errBuf strings.Builder
	err := run([]string{"-gen", "census", "-rows", "200"}, strings.NewReader(script), &out, &errBuf)
	if !errors.Is(err, errStatementFailed) {
		t.Fatalf("run returned %v, want errStatementFailed", err)
	}
	if !strings.Contains(errBuf.String(), "sqlsh: error:") {
		t.Fatalf("stderr missing error report: %q", errBuf.String())
	}
	if strings.Contains(out.String(), "error:") {
		t.Fatalf("error leaked to stdout: %q", out.String())
	}
	// The second statement ran: its result and cost line are on stdout.
	if !strings.Contains(out.String(), "simulated cost:") {
		t.Fatalf("statement after the error did not run: %q", out.String())
	}
}

// -e aborts at the first error: the following statement must not execute.
func TestScriptAbortFlag(t *testing.T) {
	script := strings.Join([]string{
		"SELECT FROM nonsense",
		"SELECT income, COUNT(*) FROM cases GROUP BY income",
	}, "\n")
	var out, errBuf strings.Builder
	err := run([]string{"-gen", "census", "-rows", "200", "-e"}, strings.NewReader(script), &out, &errBuf)
	if !errors.Is(err, errStatementFailed) {
		t.Fatalf("run returned %v, want errStatementFailed", err)
	}
	if strings.Contains(out.String(), "simulated cost:") {
		t.Fatalf("statement after the error ran under -e: %q", out.String())
	}
}

// A clean script exits 0 and prints results.
func TestScriptCleanExit(t *testing.T) {
	script := "SELECT income, COUNT(*) FROM cases GROUP BY income\n\\q\n"
	var out, errBuf strings.Builder
	if err := run([]string{"-gen", "census", "-rows", "200"}, strings.NewReader(script), &out, &errBuf); err != nil {
		t.Fatalf("clean script returned %v; stderr=%q", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "simulated cost:") {
		t.Fatalf("no result output: %q", out.String())
	}
	if errBuf.Len() != 0 {
		t.Fatalf("stderr not empty: %q", errBuf.String())
	}
}

// censusAttrs is the CLASSIFY argument list for the census generator.
const censusAttrs = "age, workclass, education, marital, occupation, relationship, race, sex, capgain, caploss, hours, country"

// TestDaemonSqlshSameScript runs one fixed script through sqlsh's run() and
// through the ccsql driver against a loopback daemon over the same data, and
// wants the same columns, rows and error text from both: the two surfaces
// share one dispatcher, so a statement cannot behave differently on them.
// sqlsh must also leave no staging directory and no goroutine behind.
func TestDaemonSqlshSameScript(t *testing.T) {
	const rows = 400
	script := []string{
		"BUILD TREE MAXDEPTH 4 MINROWS 20 MODEL m OUTPUT STATS",
		"BUILD TREE MAXDEPTH 3 MINROWS 20 OUTPUT TREE",
		"SCORE TABLE cases USING m WORKERS 4",
		"SELECT CLASSIFY(m, " + censusAttrs + ") FROM cases LIMIT 3",
		"SELECT income, COUNT(*) FROM cases GROUP BY income",
		"BUILD TREE MODEL m", // fails on both: m is already registered
		"SCORE TABLE cases USING nosuch",
		"BUILD TREE MAXDEPTH 2 MAXDEPTH 3",
		"SELECT income, COUNT(*) FROM cases GROUP BY income HAVING COUNT(*) > 1",
		"SELECT DISTINCT income FROM cases ORDER BY income",
		"SELECT income FROM cases UNION SELECT income FROM cases",
	}

	// The shell, in process.
	stage := t.TempDir()
	t.Setenv("TMPDIR", stage)
	baseline := runtime.NumGoroutine()
	var out, errBuf strings.Builder
	err := run([]string{"-gen", "census", "-rows", fmt.Sprint(rows)},
		strings.NewReader(strings.Join(script, "\n")), &out, &errBuf)
	if !errors.Is(err, errStatementFailed) {
		t.Fatalf("run returned %v, want errStatementFailed", err)
	}
	if left, _ := os.ReadDir(stage); len(left) != 0 {
		t.Errorf("sqlsh left %d entries in the staging dir, first %s", len(left), left[0].Name())
	}
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 200 {
			t.Fatalf("sqlsh left goroutines behind: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	chunks := strings.Split(out.String(), "sql> ")[1:] // [0] is the "loaded …" banner
	if len(chunks) != len(script)+1 {
		t.Fatalf("sqlsh printed %d prompts for %d statements", len(chunks), len(script))
	}
	shellErrs := strings.Split(strings.TrimSuffix(errBuf.String(), "\n"), "\n")

	// The daemon, over loopback, configured like the shell's dispatcher.
	ds, err := datagen.Load("", "census", rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	d := serve.NewDaemon(srv, serve.DaemonConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	defer func() {
		d.Drain(ln)
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	for i, stmt := range script {
		rs, err := queryResultSet(db, stmt)
		if err != nil {
			if chunks[i] != "" {
				t.Errorf("%q: daemon failed (%v), sqlsh printed %q", stmt, err, chunks[i])
			}
			if len(shellErrs) == 0 || shellErrs[0] != "sqlsh: error: "+err.Error() {
				t.Errorf("%q: daemon error %q, sqlsh stderr %q", stmt, err, shellErrs)
			} else {
				shellErrs = shellErrs[1:]
			}
			continue
		}
		want := fmt.Sprintf("%s(%d rows) simulated cost: ", rs, len(rs.Rows))
		if !strings.HasPrefix(chunks[i], want) {
			t.Errorf("%q: sqlsh printed\n%s\nthe daemon answered\n%s", stmt, chunks[i], want)
		}
	}
	if len(shellErrs) != 0 {
		t.Errorf("sqlsh reported errors the daemon did not: %q", shellErrs)
	}
}

// queryResultSet runs one statement through database/sql and rebuilds the
// engine's result-set shape from what came over the wire.
func queryResultSet(db *sql.DB, stmt string) (*engine.ResultSet, error) {
	rows, err := db.Query(stmt)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	rs := &engine.ResultSet{}
	if rs.Cols, err = rows.Columns(); err != nil {
		return nil, err
	}
	for rows.Next() {
		vals := make([]any, len(rs.Cols))
		dest := make([]any, len(rs.Cols))
		for i := range vals {
			dest[i] = &vals[i]
		}
		if err := rows.Scan(dest...); err != nil {
			return nil, err
		}
		row := make([]engine.Val, len(vals))
		for i, v := range vals {
			if s, ok := v.(string); ok {
				row[i] = engine.StrVal(s)
			} else {
				row[i] = engine.IntVal(v.(int64))
			}
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, rows.Err()
}
