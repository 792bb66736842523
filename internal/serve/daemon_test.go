package serve

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/driver" // registers the ccsql database/sql driver
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
	"repro/internal/wire"
)

// startDaemon serves a fresh census engine on a loopback port and returns
// the address plus a shutdown func.
func startDaemon(t *testing.T, rows int, sharing bool) (string, func()) {
	t.Helper()
	return startDaemonOn(t, testServer(t, rows), sharing)
}

// startDaemonOn is startDaemon over a given server.
func startDaemonOn(t *testing.T, srv *engine.Server, sharing bool) (string, func()) {
	t.Helper()
	d := NewDaemon(srv, DaemonConfig{
		Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: sharing},
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
// the plain in-process dtree.Build API. Returns the tree and its trace.
func inProcessArm(t *testing.T, rows int, opt dtree.Options) (*dtree.Tree, *obs.Trace) {
	t.Helper()
	srv := testServer(t, rows)
	meter := sim.NewMeter(srv.Meter().Costs())
	col := obs.NewTrace()
	cfg := baseCfg()
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
	return tree, col
}

// TestDaemonEquivalence: a build submitted over the wire through the stock
// database/sql driver returns the byte-identical tree dump, execution trace
// (OUTPUT TRACE) and profile (OUTPUT EXPLAIN) of an in-process dtree.Build.
func TestDaemonEquivalence(t *testing.T) {
	const rows = 1500
	opt := dtree.Options{MaxDepth: 6, MinRows: 20}
	// Every scan is one pass, so the single-worker case is the one case.
	t.Run("workers=1", func(t *testing.T) {
		wantTree, col := inProcessArm(t, rows, opt)
		wantTrace, err := textLines(func(w io.Writer) error { return col.Write(w, "ndjson") })
		if err != nil {
			t.Fatal(err)
		}
		wantExplain, err := textLines(profile.Compute(col).WriteText)
		if err != nil {
			t.Fatal(err)
		}

		addr, stop := startDaemon(t, rows, true)
		defer stop()
		db, err := sql.Open("ccsql", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		// One connection end to end: builds are serialized anyway, and a
		// single conn exercises statement-after-statement reuse.
		db.SetMaxOpenConns(1)

		build := fmt.Sprintf("BUILD TREE MAXDEPTH %d MINROWS %d OUTPUT ", opt.MaxDepth, opt.MinRows)
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

		if gotExplain := queryStrings(t, db, build+"EXPLAIN"); !equalLines(gotExplain, wantExplain) {
			t.Errorf("daemon profile differs from in-process build:\n%s\nwant:\n%s",
				strings.Join(gotExplain, "\n"), strings.Join(wantExplain, "\n"))
		}
	})
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
	want, _ := inProcessArm(t, rows, opt)
	wantLines := want.DumpLines()

	addr, stop := startDaemon(t, rows, true)
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
	addr, stop := startDaemon(t, 1200, false)
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
	addr, stop := startDaemon(t, 600, false)
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
		{"BUILD TREE MAXDEPTH 2 WORKERS 2", "WORKERS is not supported"},
		{"SCORE TABLE cases USING m WORKERS 2", "WORKERS is not supported"},
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
		Fleet: FleetConfig{Base: baseCfg(), ScanSharing: true},
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

// TestDrainWaitsForAcceptedConn: a connection Serve has accepted when Drain
// begins has its handler counted before Drain can look: Drain returns only
// after that handler has exited. The test steers the one-core scheduler into
// the gap between Serve registering the connection and releasing cmu: it holds
// cmu past sync.Mutex's 1 ms starvation threshold while Serve (with the
// connection) and then Drain wait for it, so each unlock hands cmu to the next
// waiter and runs it at once — Drain runs the moment Serve releases cmu. A
// Serve that counted the handler only after its unlock left Drain to return
// with the connection still registered and its handler not yet started.
func TestDrainWaitsForAcceptedConn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := NewDaemon(testServer(t, 100), DaemonConfig{Fleet: FleetConfig{Base: baseCfg()}})
	ln := newPipeListener()
	client, server := net.Pipe()
	defer client.Close()

	d.cmu.Lock()
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	ln.conns <- server // Serve has it, and waits for cmu
	drained := make(chan struct{})
	go func() {
		d.Drain(ln)
		close(drained)
	}()
	time.Sleep(2 * time.Millisecond) // Drain waits for cmu too
	// Serve wakes and finds cmu taken again, past the starvation threshold:
	// from here on, each unlock hands cmu over and yields.
	d.cmu.Unlock()
	d.cmu.Lock()
	time.Sleep(2 * time.Millisecond)
	d.cmu.Unlock()

	<-drained
	d.cmu.Lock()
	left := len(d.conns)
	d.cmu.Unlock()
	if left != 0 {
		t.Errorf("Drain returned with %d connection(s) still registered: their handlers had not run", left)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
}

// TestDaemonRefusesOtherVersion: a client that says hello in another protocol
// version gets one TError naming both versions and a closed connection — the
// daemon holds no older codec to serve it with.
func TestDaemonRefusesOtherVersion(t *testing.T) {
	addr, stop := startDaemon(t, 200, false)
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
	d := NewDaemon(srv, DaemonConfig{Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: true}})
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

// TestDriverCancelBuild: a BUILD TREE whose context ends while its fleet run
// is held fails with the context's error, and the driver's cancel reaches
// the daemon: the run's session leaves with context.Canceled.
func TestDriverCancelBuild(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, tap, stop := serveOn(t, testServer(t, 3000), DaemonConfig{Fleet: FleetConfig{Base: baseCfg()}}, ln)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tap.setArm(func(f *Fleet) {
		cancel()
		select {
		case <-f.sessions[0].ctx.Done():
		case <-time.After(10 * time.Second):
			t.Error("the driver's cancel did not reach the session")
		}
	})
	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, "BUILD TREE MAXDEPTH 4"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled BUILD TREE = %v, want context.Canceled", err)
	}
	d.disp.emu.Lock() // held by the run, from before the arm until it ends
	err = tap.last().sessions[0].Err()
	d.disp.emu.Unlock()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("the session's Err() = %v, want context.Canceled", err)
	}
	db.Close()
	stop()
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
	d := NewDaemon(testServer(t, rows), DaemonConfig{Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: true}})
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

// TestDaemonShowSessions: SHOW SESSIONS answers over a loopback connection
// while a held run owns the engine mutex — from the dispatcher's snapshot, not
// the live sessions — with one row per session of the run: id, kind, cohort
// (the run's number), arrival and state; once the run has ended, the rows give
// each session's outcome.
func TestDaemonShowSessions(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, tap, stop := serveOn(t, testServer(t, 3000), DaemonConfig{
		Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: true},
	}, ln)
	defer stop()
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	defer unhold() // before stop: a failed test must not leave the run held
	dial := func() *rawClient {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		c, err := dialRaw(nc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	builder, scorer, parker, shower := dial(), dial(), dial(), dial()
	show := func(what string, want ...string) {
		t.Helper()
		checkShow(t, shower, what, want...)
	}

	show("before any run")
	if _, err := builder.query("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
		t.Fatal(err)
	}
	show("after the first run", "1 build 1 0 done")

	tap.setArm(func(f *Fleet) {
		if len(f.sessions) == 2 {
			close(held)
			<-release
		}
	})
	// Run 2 parks the coordinator while both statements queue; run 3 holds.
	queueCohort(t, d, parker,
		func() error { return builder.send("BUILD TREE MAXDEPTH 3") },
		func() error { return scorer.send("SCORE TABLE cases USING m") })
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the cohort's run never started")
	}
	show("while the run holds the engine", "1 build 3 0 running", "2 score 3 0 running")
	unhold()
	// The build is answered after the snapshot's last update.
	for _, c := range []*rawClient{scorer, builder} {
		fs, err := c.result()
		if err != nil {
			t.Fatal(err)
		}
		if last := fs[len(fs)-1]; last.t != wire.TDone {
			t.Fatalf("a statement of the held run ended with %v", last)
		}
	}
	show("after the run", "1 build 3 0 done", "2 score 3 0 done")
}

// checkShow sends SHOW SESSIONS on c and checks its answer: the header, then
// want's rows (cells space-separated).
func checkShow(t *testing.T, c *rawClient, what string, want ...string) {
	t.Helper()
	fs, err := c.query("SHOW SESSIONS")
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var h wire.ResultHeader
	if err := wire.Unmarshal(fs[0].payload, &h); err != nil || fs[0].t != wire.TResultHeader {
		t.Fatalf("%s: the answer starts with %v (%v), want a result header", what, fs[0], err)
	}
	got := []string{strings.Join(h.Cols, " ")}
	var b wire.RowBatch
	for _, f := range fs[1 : len(fs)-1] {
		if err := wire.Unmarshal(f.payload, &b); err != nil {
			t.Fatal(err)
		}
		for _, row := range b.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = fmt.Sprint(c.I)
				if c.Str {
					cells[i] = c.S
				}
			}
			got = append(got, strings.Join(cells, " "))
		}
	}
	if want = append([]string{"id kind cohort arrival state"}, want...); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: SHOW SESSIONS = %q, want %q", what, got, want)
	}
}

// TestDaemonShowSessionsAfterScore: a scorer's row says done by the time its
// client has read TDone. The run ends a scoring result's stream as it ends
// the run, and writes the session's final state into the snapshot before
// that, so SHOW SESSIONS sent the moment the stream ends — on a second
// loopback connection, already open — never finds it running. Ten runs of one
// scorer each; in every run the state must be written while the scorer's
// result is still open, which the timing of a loopback round trip alone would
// seldom show.
func TestDaemonShowSessionsAfterScore(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, tap, stop := serveOn(t, testServer(t, 3000), DaemonConfig{
		Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: true},
	}, ln)
	defer stop()
	var marked, late atomic.Int64
	tap.setArm(func(f *Fleet) {
		mark := f.ended
		f.ended = func(s *Session, state string) {
			if s.score != nil {
				if _, done, _ := s.score.Wait(-1); done {
					late.Add(1)
				}
				marked.Add(1)
			}
			mark(s, state)
		}
	})
	defer tap.setArm(nil)
	dial := func() *rawClient {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		c, err := dialRaw(nc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	scorer, shower := dial(), dial()
	if _, err := scorer.query("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
		t.Fatal(err)
	}
	for run := int64(2); run <= 11; run++ {
		fs, err := scorer.query("SCORE TABLE cases USING m")
		if err != nil {
			t.Fatal(err)
		}
		if last := fs[len(fs)-1]; last.t != wire.TDone {
			t.Fatalf("run %d: the score ended with %v", run, last)
		}
		checkShow(t, shower, fmt.Sprintf("run %d, right after TDone", run), fmt.Sprintf("1 score %d 0 done", run))
	}
	if marked.Load() != 10 || late.Load() > 0 {
		t.Errorf("of %d scorers' final states, %d were written after the result finished; want 10, none", marked.Load(), late.Load())
	}
}
