package serve

import (
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
	"repro/internal/sqlparser"
)

// inProcessScoreArm builds a tree exactly like the daemon's fleet would,
// compiles it, and scores the same table in-process with the vectorized
// operator: the reference predictions and distributions for the wire arm.
func inProcessScoreArm(t *testing.T, rows, workers int, opt dtree.Options) (*engine.Model, *engine.ScoreResult, []data.Value) {
	t.Helper()
	srv := testServer(t, rows)
	mid, err := mw.New(srv, baseCfg(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	tree, err := dtree.Build(mid, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dtree.Compile(tree, "m")
	if err != nil {
		t.Fatal(err)
	}
	eng := srv.Engine()
	if err := eng.RegisterModel(m); err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.Table("cases")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ScoreTable(tbl, m, workers)
	if err != nil {
		t.Fatal(err)
	}

	// The in-client row loop over the same table, as a second witness: a
	// plain SELECT * returns rows in storage order.
	rs, err := eng.Exec("SELECT * FROM cases")
	if err != nil {
		t.Fatal(err)
	}
	loop := make([]data.Value, 0, len(rs.Rows))
	for _, vr := range rs.Rows {
		row := make(data.Row, len(vr))
		for i, v := range vr {
			row[i] = data.Value(v.I)
		}
		loop = append(loop, tree.Predict(row))
	}
	return m, res, loop
}

// TestDaemonScoringEquivalence is the wire leg of the scoring equivalence
// spine: BUILD ... MODEL then SCORE TABLE over the stock database/sql driver
// must stream exactly the class labels and per-class distributions the
// in-process vectorized operator and the in-client tree walk produce — at
// one, four and eight workers.
func TestDaemonScoringEquivalence(t *testing.T) {
	const rows = 1500
	opt := dtree.Options{MaxDepth: 6, MinRows: 20}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			model, res, loop := inProcessScoreArm(t, rows, workers, opt)
			if int64(len(loop)) != res.Rows {
				t.Fatalf("in-process witnesses disagree: %d loop rows, %d scored", len(loop), res.Rows)
			}
			for i := range loop {
				if loop[i] != res.Classes[i] {
					t.Fatalf("in-process witnesses disagree at row %d", i)
				}
			}

			addr, stop := startDaemon(t, rows, workers, true)
			defer stop()
			db, err := sql.Open("ccsql", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.SetMaxOpenConns(1)

			build := fmt.Sprintf("BUILD TREE MAXDEPTH %d MINROWS %d WORKERS %d MODEL m OUTPUT STATS",
				opt.MaxDepth, opt.MinRows, workers)
			if _, err := db.Exec(build); err != nil {
				t.Fatalf("%s: %v", build, err)
			}

			wrows, err := db.Query(fmt.Sprintf("SCORE TABLE cases USING m WORKERS %d", workers))
			if err != nil {
				t.Fatal(err)
			}
			defer wrows.Close()
			cols, err := wrows.Columns()
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 + model.Classes; len(cols) != want {
				t.Fatalf("scored stream has %d columns, want %d (class + per-class counts)", len(cols), want)
			}
			i := 0
			dest := make([]any, len(cols))
			for di := range dest {
				dest[di] = new(int64)
			}
			for wrows.Next() {
				if err := wrows.Scan(dest...); err != nil {
					t.Fatal(err)
				}
				if i >= len(loop) {
					t.Fatalf("daemon streamed more than %d rows", len(loop))
				}
				if got := data.Value(*dest[0].(*int64)); got != loop[i] {
					t.Fatalf("row %d: daemon class %d, in-process %d", i, got, loop[i])
				}
				dist := res.Dist(model, i)
				for c := 0; c < model.Classes; c++ {
					if got := *dest[1+c].(*int64); got != dist[c] {
						t.Fatalf("row %d class %d: daemon count %d, in-process %d", i, c, got, dist[c])
					}
				}
				i++
			}
			if err := wrows.Err(); err != nil {
				t.Fatal(err)
			}
			if i != len(loop) {
				t.Fatalf("daemon streamed %d rows, want %d", i, len(loop))
			}
		})
	}
}

// TestDaemonModelRegistration pins that BUILD ... MODEL persists the model
// as data: the catalog table is queryable over the same connection and holds
// one row per tree node.
func TestDaemonModelRegistration(t *testing.T) {
	addr, stop := startDaemon(t, 1000, 1, true)
	defer stop()
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	dump := queryStrings(t, db, "BUILD TREE MAXDEPTH 4 MINROWS 20 MODEL cat OUTPUT TREE")
	if len(dump) < 2 {
		t.Fatal("empty tree dump")
	}
	// The dump is one header line plus one line per node.
	nodes := int64(len(dump) - 1)
	var catRows int64
	if err := db.QueryRow("SELECT COUNT(*) FROM " + engine.ModelCatalogTable("cat")).Scan(&catRows); err != nil {
		t.Fatal(err)
	}
	if catRows != nodes {
		t.Errorf("catalog holds %d rows, tree dump has %d nodes", catRows, nodes)
	}
}

// TestDaemonScoreUnknownModel pins per-request failure isolation: scoring
// with an unregistered model errors that one statement and leaves the
// connection usable.
func TestDaemonScoreUnknownModel(t *testing.T) {
	addr, stop := startDaemon(t, 800, 1, true)
	defer stop()
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec("SCORE TABLE cases USING nosuch"); err == nil ||
		!strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown-model error = %v, want it to name the model", err)
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM cases").Scan(&n); err != nil {
		t.Fatalf("connection unusable after unknown-model error: %v", err)
	}
}

// TestDaemonMixedCohort admits builds and scoring sessions to the same
// fleet at once — the scan-sharing case the scheduler was extended for —
// and checks every client still gets exactly its single-tenant answer.
func TestDaemonMixedCohort(t *testing.T) {
	const rows = 1200
	opt := dtree.Options{MaxDepth: 6, MinRows: 20}
	_, res, loop := inProcessScoreArm(t, rows, 1, opt)
	wantTree, _ := inProcessArm(t, rows, 1, opt)
	wantLines := wantTree.DumpLines()
	_ = res

	addr, stop := startDaemon(t, rows, 1, true)
	defer stop()

	// Register the model first, on its own connection.
	setup, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("BUILD TREE MAXDEPTH 6 MINROWS 20 MODEL m OUTPUT STATS"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			db, err := sql.Open("ccsql", addr)
			if err != nil {
				errs <- err
				return
			}
			defer db.Close()
			if c%2 == 0 {
				got := make([]data.Value, 0, rows)
				wrows, err := db.Query("SCORE TABLE cases USING m")
				if err != nil {
					errs <- fmt.Errorf("scorer %d: %w", c, err)
					return
				}
				cols, err := wrows.Columns()
				if err != nil {
					errs <- err
					return
				}
				dest := make([]any, len(cols))
				for di := range dest {
					dest[di] = new(int64)
				}
				for wrows.Next() {
					if err := wrows.Scan(dest...); err != nil {
						errs <- err
						return
					}
					got = append(got, data.Value(*dest[0].(*int64)))
				}
				if err := wrows.Err(); err != nil {
					errs <- fmt.Errorf("scorer %d: %w", c, err)
					return
				}
				wrows.Close()
				if len(got) != len(loop) {
					errs <- fmt.Errorf("scorer %d: %d rows, want %d", c, len(got), len(loop))
					return
				}
				for i := range got {
					if got[i] != loop[i] {
						errs <- fmt.Errorf("scorer %d: prediction %d differs from single-tenant scoring", c, i)
						return
					}
				}
			} else {
				rows, err := db.Query("BUILD TREE MAXDEPTH 6 MINROWS 20 OUTPUT TREE")
				if err != nil {
					errs <- fmt.Errorf("builder %d: %w", c, err)
					return
				}
				var got []string
				for rows.Next() {
					var s string
					if err := rows.Scan(&s); err != nil {
						errs <- err
						return
					}
					got = append(got, s)
				}
				if err := rows.Err(); err != nil {
					errs <- fmt.Errorf("builder %d: %w", c, err)
					return
				}
				rows.Close()
				if !equalLines(got, wantLines) {
					errs <- fmt.Errorf("builder %d: tree differs from single-tenant build", c)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// queryTable runs one statement through the ccsql driver and returns its
// column names and every row rendered as strings.
func queryTable(t *testing.T, db *sql.DB, stmt string) ([]string, [][]string) {
	t.Helper()
	rows, err := db.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for rows.Next() {
		vals := make([]any, len(cols))
		dest := make([]any, len(cols))
		for i := range vals {
			dest[i] = &vals[i]
		}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		row := make([]string, len(cols))
		for i, v := range vals {
			row[i] = fmt.Sprint(v)
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return cols, out
}

// TestDaemonRoutesByAST pins that a statement's route and result shape come
// from its parse, not from its first word: a leading comment or blank lines
// change nothing (the text sniff sent a commented SCORE TABLE past the fleet,
// where it lost its distribution columns, and a commented BUILD TREE into the
// engine as a parse error), and SCORE TABLE answers class, c0 … c{k-1}
// whichever route its table name selects.
func TestDaemonRoutesByAST(t *testing.T) {
	addr, stop := startDaemon(t, 600, 1, true)
	defer stop()
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	bareCols, bareStats := queryTable(t, db, "BUILD TREE MAXDEPTH 4 MINROWS 20")
	cols, stats := queryTable(t, db, "-- register\n\n  BUILD TREE MAXDEPTH 4 MINROWS 20 MODEL m")
	if fmt.Sprint(cols, stats) != fmt.Sprint(bareCols, bareStats) {
		t.Errorf("commented BUILD TREE answered\n%v %v\nbare statement\n%v %v", cols, stats, bareCols, bareStats)
	}

	bareCols, bareRows := queryTable(t, db, "SCORE TABLE cases USING m")
	if want := []string{"class", "c0", "c1"}; !equalLines(bareCols, want) {
		t.Fatalf("SCORE TABLE columns = %v, want %v", bareCols, want)
	}
	cols, rows := queryTable(t, db, "-- x\n\nSCORE TABLE cases USING m")
	if fmt.Sprint(cols, rows) != fmt.Sprint(bareCols, bareRows) {
		t.Errorf("commented SCORE TABLE: columns %v and %d rows differ from the bare statement's %v and %d rows",
			cols, len(rows), bareCols, len(bareRows))
	}

	// The engine route: a table the daemon does not serve, filled with the
	// served table's first rows over the same connection (DDL and DML answer
	// an empty result, not a dropped connection).
	const n = 5
	srcCols, src := queryTable(t, db, fmt.Sprintf("SELECT * FROM cases LIMIT %d", n))
	if _, err := db.Exec("CREATE TABLE copy (" + strings.Join(srcCols, " INT, ") + " INT)"); err != nil {
		t.Fatal(err)
	}
	for _, r := range src {
		if _, err := db.Exec("INSERT INTO copy VALUES (" + strings.Join(r, ", ") + ")"); err != nil {
			t.Fatal(err)
		}
	}
	cols, rows = queryTable(t, db, "SCORE TABLE copy USING m")
	if fmt.Sprint(cols, rows) != fmt.Sprint(bareCols, bareRows[:n]) {
		t.Errorf("engine-route SCORE TABLE answered %v %v, fleet route %v %v", cols, rows, bareCols, bareRows[:n])
	}
}

// TestDispatcherRoutes checks the type switch itself, without a network:
// which statements reach the fleet, and what the engine says to the ones
// that cannot run without it.
func TestDispatcherRoutes(t *testing.T) {
	srv := testServer(t, 400)
	d := NewDispatcher(srv.Engine(), srv, DaemonConfig{Fleet: FleetConfig{Base: baseCfg(1)}})
	defer d.Close()
	if _, err := d.Execute("BUILD TREE MAXDEPTH 3 MODEL m"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql   string
		fleet bool
	}{
		{"SCORE TABLE cases USING m", true},
		{"-- note\n\n SCORE TABLE cases USING m WORKERS 2", true},
		{"SELECT COUNT(*) FROM cases", false},
	} {
		res, err := d.Execute(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := res.Score != nil; got != c.fleet {
			t.Errorf("%q: fleet route = %v, want %v", c.sql, got, c.fleet)
		}
		if rs, err := res.Rows(); rs == nil || err != nil || res.Cost() <= 0 {
			t.Errorf("%q: rows %v, %v, cost %v", c.sql, rs, err, res.Cost())
		}
	}
	// A model name no SCORE or CLASSIFY could spell is refused by the parser,
	// before any build runs: nothing gets registered.
	for _, sql := range []string{"BUILD TREE MODEL a-b", "BUILD TREE MODEL 9", "BUILD TREE MODEL select", "BUILD TREE MINROWS -1 MODEL z"} {
		_, err := d.Execute(sql)
		var perr *sqlparser.Error
		if !errors.As(err, &perr) {
			t.Errorf("%q: error %v, want a *sqlparser.Error", sql, err)
		}
	}
	if names := srv.Engine().ModelNames(); len(names) != 1 || names[0] != "m" {
		t.Errorf("registered models = %v, want [m]", names)
	}

	// No served table: the same dispatcher degrades to the engine, which
	// names what BUILD TREE is missing.
	bare := NewDispatcher(engine.New(sim.NewDefaultMeter(), 0), nil, DaemonConfig{})
	defer bare.Close()
	if _, err := bare.Execute("BUILD TREE"); !errors.Is(err, engine.ErrNeedsServing) {
		t.Errorf("BUILD TREE without a served table: %v, want ErrNeedsServing", err)
	}
	if _, err := bare.Execute("CREATE TABLE t (a INT)"); err != nil {
		t.Errorf("engine statement without a served table: %v", err)
	}
}

// TestCatalogRefusesUnrepresentableModels: two client-written catalogs that no
// path trie represents — a multiway root whose two arms both route value 1,
// and a node whose parent is a leaf, so no parent lists it — load as no model.
// SCORE TABLE and CLASSIFY() on them fail with an error that names the node,
// in process and over the wire.
func TestCatalogRefusesUnrepresentableModels(t *testing.T) {
	catalogs := []struct {
		name, want string
		rows       []string
	}{
		{"dup", "multiway node 0 repeats arm value 1", []string{
			"(0, -1, -1, 0, 1, 0, 0, 2, 0, 2, 2)",
			"(1, 0, 0, 1, 0, -1, 0, 1, 0, 2, 1)",
			"(2, 0, 1, 1, 0, -1, 0, 1, 1, 1, 2)",
		}},
		{"orphan", "node 3 is not reached from the root", []string{
			"(0, -1, -1, 0, 0, 0, 1, 2, 0, 2, 2)",
			"(1, 0, 0, 1, 0, -1, 0, 1, 0, 2, 0)",
			"(2, 0, 1, 1, 0, -1, 0, 1, 1, 0, 2)",
			"(3, 1, 0, 1, 0, -1, 0, 0, 1, 0, 1)",
		}},
	}
	const rows = 400
	srv := testServer(t, rows)
	cases, err := srv.Engine().Table("cases")
	if err != nil {
		t.Fatal(err)
	}
	load := func(name string, rows []string) []string {
		cat := engine.ModelCatalogTable(name)
		return []string{
			"CREATE TABLE " + cat + " (node INT, parent INT, arm INT, leaf INT, multiway INT, split_attr INT, split_val INT, arm_val INT, class INT, c0 INT, c1 INT)",
			"INSERT INTO " + cat + " VALUES " + strings.Join(rows, ", "),
		}
	}
	uses := func(name string) []string {
		return []string{
			"SCORE TABLE cases USING " + name,
			fmt.Sprintf("SELECT CLASSIFY(%s, %s, %s) FROM cases", name, cases.Cols[0], cases.Cols[1]),
		}
	}
	check := func(route, stmt, want string, err error) {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %s: error %v, want one naming %q", route, stmt, err, want)
		}
	}

	d := NewDispatcher(srv.Engine(), srv, DaemonConfig{Fleet: FleetConfig{Base: baseCfg(1)}})
	defer d.Close()
	for _, c := range catalogs {
		for _, stmt := range load(c.name, c.rows) {
			if _, err := d.Execute(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		for _, stmt := range uses(c.name) {
			res, err := d.Execute(stmt)
			if err == nil {
				_, err = res.Rows()
			}
			check("in process", stmt, c.want, err)
		}
	}

	addr, stop := startDaemon(t, rows, 1, true)
	defer stop()
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	for _, c := range catalogs {
		for _, stmt := range load(c.name, c.rows) {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		for _, stmt := range uses(c.name) {
			rs, err := db.Query(stmt)
			if err == nil {
				for rs.Next() {
				}
				err = rs.Err()
				rs.Close()
			}
			check("over the wire", stmt, c.want, err)
		}
	}
}
