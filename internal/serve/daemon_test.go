package serve

import (
	"bytes"
	"context"
	"database/sql"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	_ "repro/driver" // registers the ccsql database/sql driver
	"repro/internal/dtree"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// startDaemon serves a fresh census engine on a loopback port and returns
// the address plus a shutdown func.
func startDaemon(t *testing.T, rows, workers int, sharing bool) (string, func()) {
	t.Helper()
	srv := testServer(t, rows)
	d := NewDaemon(srv, DaemonConfig{
		Fleet: FleetConfig{Base: baseCfg(workers), MaxSessions: 8, ScanSharing: sharing},
		Seed:  1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve(ln) }()
	return ln.Addr().String(), func() {
		d.Drain(ln)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// queryStrings runs one statement through the ccsql driver and returns the
// first column of every row as strings.
func queryStrings(t *testing.T, db *sql.DB, stmt string) []string {
	t.Helper()
	rows, err := db.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var s string
		if err := rows.Scan(&s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// inProcessArm mirrors exactly what the daemon's fleet does for a solitary
// session — a fresh virtual clock at the session's zero arrival, the
// "session-1" observability proc, session id 1 — but drives the build with
// the plain in-process dtree.Build API. Returns the tree and the ndjson
// trace lines.
func inProcessArm(t *testing.T, rows, workers int, opt dtree.Options) (*dtree.Tree, []string) {
	t.Helper()
	srv := testServer(t, rows)
	meter := sim.NewMeter(srv.Meter().Costs())
	col := obs.NewTrace()
	cfg := baseCfg(workers)
	cfg.Session = 1
	m, err := mw.New(srv.View(meter, col.Proc("session-1", meter)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tree, err := dtree.Build(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Write(&buf, "ndjson"); err != nil {
		t.Fatal(err)
	}
	return tree, strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// TestDaemonEquivalence: a build submitted over the wire through the stock
// database/sql driver returns the byte-identical tree dump AND the
// byte-identical execution trace of an in-process dtree.Build, at one and at
// four workers.
func TestDaemonEquivalence(t *testing.T) {
	const rows = 1500
	opt := dtree.Options{MaxDepth: 6, MinRows: 20}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			wantTree, wantTrace := inProcessArm(t, rows, workers, opt)

			addr, stop := startDaemon(t, rows, workers, true)
			defer stop()
			db, err := sql.Open("ccsql", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// One connection end to end: builds are serialized anyway, and a
			// single conn exercises statement-after-statement reuse.
			db.SetMaxOpenConns(1)

			build := fmt.Sprintf("BUILD TREE MAXDEPTH %d MINROWS %d WORKERS %d OUTPUT ",
				opt.MaxDepth, opt.MinRows, workers)
			gotTree := queryStrings(t, db, build+"TREE")
			if want := wantTree.DumpLines(); !equalLines(gotTree, want) {
				t.Errorf("daemon tree differs from in-process build:\n%s\nwant:\n%s",
					strings.Join(gotTree, "\n"), strings.Join(want, "\n"))
			}

			gotTrace := queryStrings(t, db, build+"TRACE")
			if !equalLines(gotTrace, wantTrace) {
				t.Errorf("daemon trace differs from in-process build: %d vs %d lines",
					len(gotTrace), len(wantTrace))
				for i := 0; i < len(gotTrace) && i < len(wantTrace); i++ {
					if gotTrace[i] != wantTrace[i] {
						t.Errorf("first divergence at line %d:\n got %s\nwant %s", i, gotTrace[i], wantTrace[i])
						break
					}
				}
			}
		})
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDaemonConcurrentClients: several clients submitting builds at once —
// the scan-sharing cohort case — each still receive exactly the
// single-tenant tree.
func TestDaemonConcurrentClients(t *testing.T) {
	const rows, clients = 1200, 4
	opt := dtree.Options{MaxDepth: 6, MinRows: 20}
	want, _ := inProcessArm(t, rows, 1, opt)
	wantLines := want.DumpLines()

	addr, stop := startDaemon(t, rows, 1, true)
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			db, err := sql.Open("ccsql", addr)
			if err != nil {
				errs <- err
				return
			}
			defer db.Close()
			rows, err := db.Query("BUILD TREE MAXDEPTH 6 MINROWS 20 OUTPUT TREE")
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			defer rows.Close()
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
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if !equalLines(got, wantLines) {
				errs <- fmt.Errorf("client %d: tree differs from single-tenant build", c)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDriverSQL: plain SQL over the driver — streaming row batches, typed
// scans, statement errors surfacing without killing the connection, and the
// protocol's unsupported-features errors.
func TestDriverSQL(t *testing.T) {
	addr, stop := startDaemon(t, 1200, 1, false)
	defer stop()
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM cases").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1200 {
		t.Errorf("COUNT(*) = %d, want 1200", n)
	}

	// >BatchRows result rows stream across several RowBatch frames.
	rows, err := db.Query("SELECT * FROM cases")
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for rows.Next() {
		streamed++
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if streamed != 1200 {
		t.Errorf("streamed %d rows, want 1200", streamed)
	}

	// A bad statement is an error, and the connection stays usable.
	if _, err := db.Query("SELECT * FROM nonexistent"); err == nil {
		t.Error("want error for missing table")
	}
	if err := db.QueryRow("SELECT COUNT(*) FROM cases").Scan(&n); err != nil {
		t.Errorf("connection unusable after statement error: %v", err)
	}

	if _, err := db.Begin(); err == nil {
		t.Error("want error for transactions")
	}
	if _, err := db.Query("SELECT * FROM cases WHERE class = ?", 1); err == nil {
		t.Error("want error for placeholder parameters")
	}
	if _, err := db.Query("BUILD TREE WORKERS 3"); err == nil ||
		!strings.Contains(err.Error(), "WORKERS") {
		t.Errorf("want WORKERS mismatch error, got %v", err)
	}
}

// TestDriverRefusesRemovedStatements: CREATE INDEX, a JOIN, DELETE, HAVING,
// DISTINCT, ORDER BY, UNION without ALL and every aggregate but COUNT(*) —
// constructs the engine does not have — each come back over the wire as an
// error naming the construct, and the same connection then answers a SELECT.
func TestDriverRefusesRemovedStatements(t *testing.T) {
	addr, stop := startDaemon(t, 600, 1, false)
	defer stop()
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	conn, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, tc := range []struct{ stmt, want string }{
		{"CREATE INDEX ia ON cases (A1)", "CREATE INDEX is not supported"},
		{"SELECT c.A1, d.A2 FROM cases c JOIN cases d ON c.A1 = d.A1", "JOIN is not supported"},
		{"DELETE FROM cases WHERE A1 = 0", "DELETE is not supported"},
		{"SELECT A1, COUNT(*) FROM cases GROUP BY A1 HAVING COUNT(*) > 1", "HAVING is not supported"},
		{"SELECT DISTINCT A1 FROM cases", "DISTINCT is not supported"},
		{"SELECT A1 FROM cases ORDER BY A1 DESC", "ORDER BY is not supported"},
		{"SELECT A1 FROM cases UNION SELECT A2 FROM cases", "UNION without ALL is not supported"},
		{"SELECT SUM(A1) FROM cases", "SUM is not supported"},
		{"SELECT A1, MIN(A2) FROM cases GROUP BY A1", "MIN is not supported"},
		{"SELECT MAX(A1) FROM cases", "MAX is not supported"},
		{"SELECT AVG(A1) FROM cases", "AVG is not supported"},
		{"SELECT COUNT(A1) FROM cases", "COUNT(expr) is not supported"},
	} {
		if _, err := conn.ExecContext(ctx, tc.stmt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one saying %q", tc.stmt, err, tc.want)
		}
		var n int64
		if err := conn.QueryRowContext(ctx, "SELECT COUNT(*) FROM cases").Scan(&n); err != nil || n != 600 {
			t.Fatalf("after %s: COUNT(*) = %d, %v; want 600 on the same connection", tc.stmt, n, err)
		}
	}
}

// TestDaemonDrain: draining completes an in-flight statement, then refuses
// new work and returns once every handler exits.
func TestDaemonDrain(t *testing.T) {
	srv := testServer(t, 800)
	d := NewDaemon(srv, DaemonConfig{
		Fleet: FleetConfig{Base: baseCfg(1), ScanSharing: true},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve(ln) }()

	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	db.SetMaxOpenConns(1)
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM cases").Scan(&n); err != nil {
		t.Fatal(err)
	}

	d.Drain(ln)
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	// The drained daemon's listener is gone; new dials fail.
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Error("dial succeeded after drain")
	}
	db.Close()
	// Drain is idempotent.
	d.Drain(ln)
}

// TestDaemonRefusesOtherVersion: a client that says hello in another protocol
// version gets one TError naming both versions and a closed connection — the
// daemon holds no older codec to serve it with.
func TestDaemonRefusesOtherVersion(t *testing.T) {
	addr, stop := startDaemon(t, 200, 1, false)
	defer stop()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.THello, wire.Hello{Version: 1}); err != nil {
		t.Fatal(err)
	}
	var ack wire.HelloAck
	err = wire.Expect(nc, wire.THelloAck, &ack)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "want 2") {
		t.Fatalf("hello v1 answered with %v, want an error naming versions 1 and 2", err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := wire.ReadFrame(nc); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the connection closed", err)
	}
}

// TestDriverCancelMidScore: a context cancelled while a SCORE TABLE stream is
// draining ends the statement with the context's error and retires the
// connection; the daemon's handler for it exits, the next statement runs on a
// fresh connection, and no goroutine outlives the daemon.
func TestDriverCancelMidScore(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := testServer(t, 30000)
	d := NewDaemon(srv, DaemonConfig{Fleet: FleetConfig{Base: baseCfg(1), MaxSessions: 8, ScanSharing: true}, Seed: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	db.SetMaxOpenConns(1)
	if _, err := db.Exec("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.QueryContext(ctx, "SCORE TABLE cases USING m")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if n++; n == 300 { // into the second frame of 118
			cancel()
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("rows.Err() = %v after %d rows, want context.Canceled", err, n)
	}
	if n >= 30000 {
		t.Fatalf("the cancelled stream still delivered all %d rows", n)
	}
	rows.Close()

	// The handler of the retired connection exits without the daemon draining.
	waitFor(t, "the cancelled connection's handler to exit", func() bool {
		d.cmu.Lock()
		defer d.cmu.Unlock()
		return len(d.conns) == 0
	})
	var got int64
	if err := db.QueryRow("SELECT COUNT(*) FROM cases").Scan(&got); err != nil || got != 30000 {
		t.Fatalf("statement after the cancelled one: %d, %v", got, err)
	}
	rows, err = db.Query("SCORE TABLE cases USING m")
	if err != nil {
		t.Fatal(err)
	}
	for n = 0; rows.Next(); n++ {
	}
	if err := rows.Err(); err != nil || n != 30000 {
		t.Fatalf("SCORE TABLE on the fresh connection: %d rows, %v", n, err)
	}
	rows.Close()

	db.Close()
	d.Drain(ln)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every goroutine the test started to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDriverScoredStreamAllocs pins the driver's boxed-count cache: draining a
// SCORE TABLE stream with class histograms (class, c0, c1) through
// database/sql costs well under one allocation per row, where boxing every
// count >= 256 afresh cost about one and a half. The figure is process-wide —
// daemon, fleet and engine scorer included — over a second run of the
// statement, so neither side's first-use buffers count.
func TestDriverScoredStreamAllocs(t *testing.T) {
	const rows = 30000
	d := NewDaemon(testServer(t, rows), DaemonConfig{Fleet: FleetConfig{Base: baseCfg(1), MaxSessions: 8, ScanSharing: true}, Seed: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	defer func() {
		d.Drain(ln)
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	if _, err := db.Exec("BUILD TREE MAXDEPTH 8 MINROWS 50 MODEL m"); err != nil {
		t.Fatal(err)
	}
	drain := func() {
		rs, err := db.Query("SCORE TABLE cases USING m")
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		var class, c0, c1 int64
		n, big := 0, 0
		for rs.Next() {
			if err := rs.Scan(&class, &c0, &c1); err != nil {
				t.Fatal(err)
			}
			if n++; c0 >= 256 || c1 >= 256 {
				big++
			}
		}
		if err := rs.Err(); err != nil || n != rows {
			t.Fatalf("drained %d of %d rows, %v", n, rows, err)
		}
		if big < rows/2 {
			t.Fatalf("only %d of %d rows carry a count >= 256: the stream does not exercise the cache", big, rows)
		}
	}
	drain()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drain()
	runtime.ReadMemStats(&after)
	if perRow := float64(after.Mallocs-before.Mallocs) / rows; perRow >= 0.2 {
		t.Fatalf("%.3f allocations per drained row, want < 0.2", perRow)
	} else {
		t.Logf("%.3f allocations per drained row", perRow)
	}
}
