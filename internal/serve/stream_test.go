package serve

import (
	"bytes"
	"database/sql"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// This file tests the streamed SCORE TABLE: the daemon frames a fleet scoring
// result behind the scan's watermark (writeScored), so the tests watch the
// frames themselves — through a client that speaks the protocol without the
// driver — and what becomes of the stream when the run fails or the client
// goes away.

// frame is one protocol frame as a client read it.
type frame struct {
	t       wire.Type
	payload []byte
}

func (f frame) String() string { return fmt.Sprintf("%s[%d]", f.t, len(f.payload)) }

// rawClient speaks the wire protocol on one connection, frame by frame.
type rawClient struct{ nc net.Conn }

// dialRaw exchanges hellos on nc.
func dialRaw(nc net.Conn) (*rawClient, error) {
	if err := wire.WriteFrame(nc, wire.THello, wire.Hello{Version: wire.Version}); err != nil {
		return nil, err
	}
	var ack wire.HelloAck
	if err := wire.Expect(nc, wire.THelloAck, &ack); err != nil {
		return nil, err
	}
	return &rawClient{nc}, nil
}

func (c *rawClient) send(stmt string) error {
	return wire.WriteFrame(c.nc, wire.TQuery, wire.Query{SQL: stmt})
}

// read returns the next n frames of the stream.
func (c *rawClient) read(n int) ([]frame, error) {
	var out []frame
	for len(out) < n {
		t, payload, err := wire.ReadFrame(c.nc)
		if err != nil {
			return out, err
		}
		out = append(out, frame{t, payload})
	}
	return out, nil
}

// readResult reads one statement's frames, the closing TDone or TError
// included.
func readResult(r io.Reader) ([]frame, error) {
	var out []frame
	for {
		t, payload, err := wire.ReadFrame(r)
		if err != nil {
			return out, err
		}
		out = append(out, frame{t, payload})
		if t == wire.TDone || t == wire.TError {
			return out, nil
		}
	}
}

func (c *rawClient) result() ([]frame, error) { return readResult(c.nc) }

// query runs one statement and returns its frames; a TError ending is an error.
func (c *rawClient) query(stmt string) ([]frame, error) {
	if err := c.send(stmt); err != nil {
		return nil, err
	}
	fs, err := c.result()
	if err != nil {
		return fs, fmt.Errorf("%s: %w", stmt, err)
	}
	if last := fs[len(fs)-1]; last.t == wire.TError {
		var e wire.Error
		wire.Unmarshal(last.payload, &e)
		return fs, fmt.Errorf("%s: %s", stmt, e.Msg)
	}
	return fs, nil
}

// scoredRows counts the rows of a statement's TScoredBatch frames.
func scoredRows(t *testing.T, fs []frame) int {
	t.Helper()
	n := 0
	var b wire.ScoredBatch
	for _, f := range fs {
		if f.t == wire.TScoredBatch {
			if err := wire.Unmarshal(f.payload, &b); err != nil {
				t.Fatal(err)
			}
			n += len(b.Classes)
		}
	}
	return n
}

// cutFrames is the reference stream: header, BatchRows-row batches and done,
// cut from a finished result the way the daemon did before it streamed.
func cutFrames(t *testing.T, m *engine.Model, res *engine.ScoreResult) []frame {
	t.Helper()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wire.WriteFrame(&buf, wire.TResultHeader, wire.ResultHeader{Cols: engine.ScoreCols(m.Classes)})
	n := len(res.Classes)
	for base := 0; base < n; base += wire.BatchRows {
		b := wire.ScoredBatch{Model: m.Name}
		for i := base; i < min(base+wire.BatchRows, n); i++ {
			b.Classes = append(b.Classes, int32(res.Classes[i]))
			b.Dists = append(b.Dists, res.Dist(m, i))
		}
		wire.WriteFrame(&buf, wire.TScoredBatch, &b)
	}
	wire.WriteFrame(&buf, wire.TDone, wire.Done{Rows: int64(n)})
	fs, err := readResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func sameFrames(t *testing.T, what string, got, want []frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d frames %v, want %d", what, len(got), got[:min(len(got), 4)], len(want))
		return
	}
	for i := range got {
		if got[i].t != want[i].t || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Errorf("%s: frame %d is %v, want %v (or its bytes differ)", what, i, got[i], want[i])
			return
		}
	}
}

// pipeListener hands a daemon the server ends of net.Pipe connections. A pipe
// has no buffer: the daemon's write of a frame returns only when the client
// read it, so a client that stops reading stops its handler at once — what a
// real socket does only after its buffers fill.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial connects a raw client through a fresh pipe.
func (l *pipeListener) dial(t *testing.T) *rawClient {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-l.done:
		t.Fatal("dial on a closed pipe listener")
	}
	c, err := dialRaw(client)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fleetTap is the Dispatcher.onFleet seam's test end: it keeps every run's
// fleet, and lets a test arm the runs to come.
type fleetTap struct {
	mu     sync.Mutex
	fleets []*Fleet
	arm    func(*Fleet)
}

func (ft *fleetTap) onFleet(f *Fleet) {
	ft.mu.Lock()
	ft.fleets = append(ft.fleets, f)
	arm := ft.arm
	ft.mu.Unlock()
	if arm != nil {
		arm(f)
	}
}

func (ft *fleetTap) setArm(arm func(*Fleet)) {
	ft.mu.Lock()
	ft.arm = arm
	ft.mu.Unlock()
}

func (ft *fleetTap) last() *Fleet {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.fleets[len(ft.fleets)-1]
}

// serveOn starts a daemon with a tap on ln; stop drains it and fails the test
// if Drain does not return.
func serveOn(t *testing.T, srv *engine.Server, cfg DaemonConfig, ln net.Listener) (*Daemon, *fleetTap, func()) {
	t.Helper()
	d := NewDaemon(srv, cfg)
	tap := &fleetTap{}
	d.disp.onFleet = tap.onFleet
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	return d, tap, func() {
		t.Helper()
		drained := make(chan struct{})
		go func() { d.Drain(ln); close(drained) }()
		select {
		case <-drained:
		case <-time.After(30 * time.Second):
			t.Fatal("Drain did not return")
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// queueCohort makes the statements of sends one fleet run: it keeps the
// coordinator parked at the engine mutex with a run of its own (a small build
// on c0) while each send queues, in order, behind it.
func queueCohort(t *testing.T, d *Daemon, c0 *rawClient, sends ...func() error) {
	t.Helper()
	queued := func() (seq int64, n int) {
		d.disp.qmu.Lock()
		defer d.disp.qmu.Unlock()
		return d.disp.runSeq, len(d.disp.queue)
	}
	d.disp.emu.Lock()
	seq0, _ := queued()
	if err := c0.send("BUILD TREE MAXDEPTH 1"); err != nil {
		d.disp.emu.Unlock()
		t.Fatal(err)
	}
	waitFor(t, "the coordinator to take the parking run", func() bool { seq, _ := queued(); return seq == seq0+1 })
	for i, send := range sends {
		if err := send(); err != nil {
			d.disp.emu.Unlock()
			t.Fatal(err)
		}
		waitFor(t, "the cohort's next statement to queue", func() bool { _, n := queued(); return n == i+1 })
	}
	d.disp.emu.Unlock()
	if _, err := c0.result(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonScoredStreamFollowsWatermark drives writeScored by hand over an
// unbuffered pipe, publishing the first row group in pieces that end off a
// batch boundary: the client holds every whole batch of what the scan has
// published while the result is still unfinished — the header with the first
// of them — never a short one, and the finished stream is the reference
// stream byte for byte.
func TestDaemonScoredStreamFollowsWatermark(t *testing.T) {
	const rows = 9000 // two sealed groups and an 808-row tail: 35 batches and a 40-row one
	srv := testServer(t, rows)
	model, want, _ := inProcessScoreArm(t, rows, testOpt)
	ref := cutFrames(t, model, want)

	res, err := srv.OpenScore(model)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	wrote := make(chan error, 1)
	go func() { wrote <- writeScored(server, model, res) }()
	c := &rawClient{client}

	lane := sim.NewMeter(srv.Meter().Costs())
	sc := res.Consumer(model, lane)
	g0, err := srv.ColGroups(sc.NeedCols()).Read(0)
	if err != nil {
		t.Fatal(err)
	}
	piece := func(lo, hi int) func() { // rows [lo, hi) of the first group, as one block
		return func() {
			sel := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				sel = append(sel, int32(i))
			}
			sc.Consume(&engine.ColBlock{Group: g0, Base: lo, N: hi - lo, Sel: sel})
		}
	}
	group := func(g int) func() {
		return func() {
			srv.ScanColumnarRange(predicate.MatchAll(), sc.NeedCols(), g, g+1, lane, sc.Consume)
		}
	}
	var got []frame
	for _, step := range []struct {
		published int
		publish   func()
	}{{300, piece(0, 300)}, {1000, piece(300, 1000)}, {4096, piece(1000, 4096)}, {8192, group(1)}, {9000, group(2)}} {
		step.publish()
		fs, err := c.read(1 + step.published/wire.BatchRows - len(got)) // the header, once, and every whole batch
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fs...)
		sameFrames(t, fmt.Sprintf("%d rows published, result unfinished", step.published), got, ref[:len(got)])
	}
	res.Finish(nil)
	fs, err := c.result()
	if err != nil {
		t.Fatal(err)
	}
	sameFrames(t, "the finished stream", append(got, fs...), ref)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// TestDaemonScoredStreamSameBytes: whatever the interleaving of the scan,
// cohort mates and the framing handler, a streamed SCORE TABLE is the frames
// cut from the finished result, byte for byte — over repeated runs, with a
// single-leaf model, inside a shared build + score cohort, and on an empty
// table.
func TestDaemonScoredStreamSameBytes(t *testing.T) {
	const rows = 20000 // five row groups
	srv := testServer(t, rows)
	pl := newPipeListener()
	d, tap, stop := serveOn(t, srv, DaemonConfig{
		Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: true}, Seed: 1,
	}, pl)
	defer stop()
	c := pl.dial(t)
	for _, build := range []string{
		"BUILD TREE MAXDEPTH 6 MINROWS 20 MODEL m",
		fmt.Sprintf("BUILD TREE MINROWS %d MODEL leaf", 2*rows),
	} {
		if _, err := c.query(build); err != nil {
			t.Fatal(err)
		}
	}
	reference := func(name string) (*engine.Model, []frame) {
		d.disp.emu.Lock()
		defer d.disp.emu.Unlock()
		m, err := srv.Engine().Model(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.View(sim.NewMeter(srv.Meter().Costs()), nil).ScoreColumnar(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m, cutFrames(t, m, res)
	}
	model, ref := reference("m")
	leaf, leafRef := reference("leaf")
	if len(leaf.Nodes) != 1 {
		t.Fatalf("model leaf has %d nodes, want a single leaf", len(leaf.Nodes))
	}
	if want := 2 + (rows+wire.BatchRows-1)/wire.BatchRows; len(ref) != want {
		t.Fatalf("reference stream has %d frames, want %d", len(ref), want)
	}

	for rep := 0; rep < 4; rep++ {
		got, err := c.query("SCORE TABLE cases USING m")
		if err != nil {
			t.Fatal(err)
		}
		sameFrames(t, fmt.Sprintf("run %d", rep), got, ref)
	}
	got, err := c.query("SCORE TABLE cases USING leaf")
	if err != nil {
		t.Fatal(err)
	}
	sameFrames(t, "single-leaf model", got, leafRef)

	// A shared cohort: one scoring session and one build on the same scan.
	builder := pl.dial(t)
	parker := pl.dial(t)
	queueCohort(t, d, parker,
		func() error { return c.send("SCORE TABLE cases USING m") },
		func() error { return builder.send("BUILD TREE MAXDEPTH 6 MINROWS 20 OUTPUT TREE") })
	built := make(chan error, 1)
	go func() { _, err := builder.result(); built <- err }()
	got, err = c.result()
	if err != nil {
		t.Fatal(err)
	}
	sameFrames(t, "inside a build + score cohort", got, ref)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	if f := tap.last(); len(f.Sessions()) != 2 || f.IOMeter().Count(sim.CtrServerScans) == 0 {
		t.Errorf("the cohort ran as %d sessions with %d shared scans, want 2 sessions on a shared scan",
			len(f.Sessions()), f.IOMeter().Count(sim.CtrServerScans))
	}

	// An empty table: header and done, no batch.
	empty, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", data.NewDataset(srv.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Engine().RegisterModel(model); err != nil {
		t.Fatal(err)
	}
	epl := newPipeListener()
	_, _, estop := serveOn(t, empty, DaemonConfig{Fleet: FleetConfig{Base: baseCfg()}}, epl)
	defer estop()
	got, err = epl.dial(t).query("SCORE TABLE cases USING m")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].t != wire.TResultHeader || !bytes.Equal(got[0].payload, ref[0].payload) || got[1].t != wire.TDone {
		t.Errorf("empty table streamed %v, want the header and done", got)
	}
}

// TestDaemonScoreRunFailsMidStream: a fleet run that fails after its scoring
// session published every row — the injected failure of the round after the
// scan — ends the stream the client is draining with the run's error, after
// the rows; the same connection then answers the next statements, and no
// goroutine outlives the daemon.
func TestDaemonScoreRunFailsMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	const rows = 3000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, tap, stop := serveOn(t, testServer(t, rows), DaemonConfig{
		Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: true}, Seed: 1,
	}, ln)
	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	db.SetMaxOpenConns(1)
	if _, err := db.Exec("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
		t.Fatal(err)
	}
	theConn := func() net.Conn {
		d.cmu.Lock()
		defer d.cmu.Unlock()
		if len(d.conns) != 1 {
			t.Fatalf("%d connections open, want the pool's one", len(d.conns))
		}
		for c := range d.conns {
			return c
		}
		return nil
	}
	conn := theConn()

	injected := errors.New("injected failure after the scoring round")
	tap.setArm(func(f *Fleet) {
		rounds := 0
		f.runHook = func() error {
			if rounds++; rounds == 2 { // round 1 scored the table and retired the session
				return injected
			}
			return nil
		}
	})
	rs, err := db.Query("SCORE TABLE cases USING m")
	if err != nil {
		t.Fatalf("the statement failed before its header: %v", err)
	}
	n := 0
	for rs.Next() {
		n++
	}
	if err := rs.Err(); err == nil || !strings.Contains(err.Error(), injected.Error()) {
		t.Fatalf("rows.Err() = %v after %d rows, want the injected failure", err, n)
	}
	if n != rows {
		t.Errorf("the failed stream delivered %d rows, want the %d the run published", n, rows)
	}
	rs.Close()
	tap.setArm(nil)

	var count int64
	if err := db.QueryRow("SELECT COUNT(*) FROM cases").Scan(&count); err != nil || count != rows {
		t.Fatalf("statement after the failed stream: %d, %v", count, err)
	}
	rs, err = db.Query("SCORE TABLE cases USING m")
	if err != nil {
		t.Fatal(err)
	}
	for n = 0; rs.Next(); n++ {
	}
	if err := rs.Err(); err != nil || n != rows {
		t.Fatalf("SCORE TABLE after the failed stream: %d rows, %v", n, err)
	}
	rs.Close()
	if theConn() != conn {
		t.Error("the failed stream cost the client its connection")
	}

	db.Close()
	stop()
	waitFor(t, "every goroutine the test started to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestDaemonScoreSharedRoundFailsMidStream: a scoring session and a build
// share a scan; the build's staging file is a full device, so its writer
// fails when the round finishes it, after the scan fed both. The scoring
// client has been streamed every row and then gets the round's error, the
// build's client gets it outright, every span of both sessions has ended,
// nothing is left in the staging directory, both connections serve on, and no
// goroutine outlives the daemon.
func TestDaemonScoreSharedRoundFailsMidStream(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a staging write with")
	}
	before := runtime.NumGoroutine()
	const rows = 3000
	dir := t.TempDir()
	pl := newPipeListener()
	d, tap, stop := serveOn(t, testServer(t, rows), DaemonConfig{
		Fleet: FleetConfig{Base: mw.Config{Staging: mw.StageFileOnly, Workers: 1, Dir: dir}, MaxSessions: 8, ScanSharing: true}, Seed: 1,
	}, pl)
	scorer, builder, parker := pl.dial(t), pl.dial(t), pl.dial(t)
	if _, err := scorer.query("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
		t.Fatal(err)
	}
	ok, err := scorer.query("SCORE TABLE cases USING m")
	if err != nil {
		t.Fatal(err)
	}

	tap.setArm(func(f *Fleet) {
		if len(f.sessions) != 2 {
			return // the parking run
		}
		f.runHook = func() error {
			f.runHook = nil
			// The build's first staging file will be this link.
			return os.Symlink("/dev/full", filepath.Join(stageDirOf(f.sessions[1]), "stage000001.cols"))
		}
	})
	queueCohort(t, d, parker,
		func() error { return scorer.send("SCORE TABLE cases USING m") },
		func() error { return builder.send("BUILD TREE MAXDEPTH 6 MINROWS 20 OUTPUT TRACE") })
	built := make(chan []frame, 1)
	go func() { fs, _ := builder.result(); built <- fs }()
	got, err := scorer.result()
	if err != nil {
		t.Fatal(err)
	}
	tap.setArm(nil)
	if last := got[len(got)-1]; last.t != wire.TError || !strings.Contains(string(last.payload), "staging file") {
		t.Fatalf("the scoring stream ended with %v %s, want the staging write's TError", last, last.payload)
	}
	sameFrames(t, "the rows streamed before the failure", got[:len(got)-1], ok[:len(ok)-1])
	if fs := <-built; len(fs) != 1 || fs[0].t != wire.TError {
		t.Errorf("the build answered %v, want a bare TError", fs)
	}

	f := tap.last()
	procs := 0
	f.col.EachProc(func(pv obs.ProcView) {
		procs++
		for _, s := range pv.Spans {
			if s.Deltas == nil {
				t.Errorf("%s: span %d %s/%s never ended", pv.Name, s.ID, s.Cat, s.Name)
			}
		}
	})
	if procs != 2 {
		t.Errorf("%d procs traced, want the cohort's 2", procs)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "mwstage-*")); len(left) != 0 {
		t.Errorf("staging directories survive the failed run: %v", left)
	}

	again, err := scorer.query("SCORE TABLE cases USING m")
	if err != nil {
		t.Fatal(err)
	}
	sameFrames(t, "SCORE TABLE on the connection whose stream failed", again, ok)
	if _, err := builder.query("BUILD TREE MAXDEPTH 6 MINROWS 20 OUTPUT TREE"); err != nil {
		t.Fatal(err)
	}

	for _, c := range []*rawClient{scorer, builder, parker} {
		c.nc.Close()
	}
	stop()
	waitFor(t, "every goroutine the test started to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestDaemonAbandonedScoreStream: a client that sends SCORE TABLE and then
// stops reading — or reads one batch and hangs up — holds nothing but its own
// handler: the fleet run it asked for ends without it, another connection's
// BUILD TREE and SCORE TABLE finish meanwhile, and Drain returns, cutting the
// silent client off after its grace.
func TestDaemonAbandonedScoreStream(t *testing.T) {
	const rows = 3000
	for _, variant := range []string{"never reads", "hangs up mid-stream"} {
		t.Run(variant, func(t *testing.T) {
			before := runtime.NumGoroutine()
			pl := newPipeListener()
			d, _, stop := serveOn(t, testServer(t, rows), DaemonConfig{
				Fleet: FleetConfig{Base: baseCfg(), MaxSessions: 8, ScanSharing: true}, Seed: 1,
			}, pl)
			d.grace = 20 * time.Millisecond
			healthy, abandoned := pl.dial(t), pl.dial(t)
			if _, err := healthy.query("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
				t.Fatal(err)
			}

			// The pipe is unbuffered: the handler is stuck in its first write
			// it makes that nobody reads.
			if err := abandoned.send("SCORE TABLE cases USING m"); err != nil {
				t.Fatal(err)
			}
			if variant == "hangs up mid-stream" {
				fs, err := abandoned.read(2)
				if err != nil || fs[0].t != wire.TResultHeader || fs[1].t != wire.TScoredBatch {
					t.Fatalf("the stream began %v, %v", fs, err)
				}
				abandoned.nc.Close()
			}

			if _, err := healthy.query("BUILD TREE MAXDEPTH 5 MINROWS 20"); err != nil {
				t.Fatal(err)
			}
			fs, err := healthy.query("SCORE TABLE cases USING m")
			if err != nil {
				t.Fatal(err)
			}
			if n := scoredRows(t, fs); n != rows {
				t.Fatalf("the healthy connection was streamed %d rows, want %d", n, rows)
			}

			healthy.nc.Close()
			stop()
			if variant == "never reads" {
				// Not one frame was lost to a buffer: the cut-off handler left
				// the whole stream unread.
				if fs, err := abandoned.read(1); err == nil {
					t.Errorf("the abandoned connection still delivered %v after the drain", fs)
				}
				abandoned.nc.Close()
			}
			waitFor(t, "every goroutine the test started to exit", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// TestDispatcherScoreResultLifecycle pins the Result a fleet SCORE TABLE
// answers with: handed out when the session opens, before the run has scanned
// a row, it is the run's to finish — Rows and Cost wait for that — and a
// failure knowable at open fails the statement instead.
func TestDispatcherScoreResultLifecycle(t *testing.T) {
	const rows = 5000
	srv := testServer(t, rows)
	d := NewDispatcher(srv.Engine(), srv, DaemonConfig{Fleet: FleetConfig{Base: baseCfg()}})
	defer d.Close()
	tap := &fleetTap{}
	d.onFleet = tap.onFleet
	if _, err := d.Execute("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
		t.Fatal(err)
	}
	// A model splitting on a column the table does not have: OpenScore's
	// refusal, at open.
	wide := &engine.Model{Name: "wide", Cols: 99, Classes: 2, Nodes: []engine.ModelNode{
		{Parent: -1, Attr: 98, Val: 0, Kids: []int32{1, 2}, Counts: []int64{1, 1}},
		{Parent: 0, Leaf: true, Attr: -1, Counts: []int64{1, 0}},
		{Parent: 0, Leaf: true, Attr: -1, Class: 1, Counts: []int64{0, 1}},
	}}
	if err := srv.Engine().RegisterModel(wide); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{"SCORE TABLE cases USING wide", "SCORE TABLE cases USING nosuch"} {
		if res, err := d.Execute(stmt); err == nil {
			t.Errorf("%s: answered %+v, want the statement to fail before any result", stmt, res)
		}
	}

	// Park the run at its first round: the statement is answered all the same.
	release := make(chan struct{})
	tap.setArm(func(f *Fleet) {
		f.runHook = func() error { <-release; return nil }
	})
	res, err := d.Execute("SCORE TABLE cases USING m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Score == nil || res.Model == nil {
		t.Fatalf("answered %+v, want a streamed scoring result", res)
	}
	if n, done, err := res.Score.Wait(-1); n != 0 || done || err != nil {
		t.Errorf("before the run scanned, the result is at (%d, %v, %v), want (0, false, nil)", n, done, err)
	}
	close(release)
	rs, err := res.Rows()
	if err != nil || len(rs.Rows) != rows || res.Cost() <= 0 {
		t.Fatalf("Rows() = %d rows, %v; Cost() = %v", len(rs.Rows), err, res.Cost())
	}
	if n, done, err := res.Score.Wait(-1); n != rows || !done || err != nil {
		t.Errorf("after Rows the result is at (%d, %v, %v), want finished", n, done, err)
	}
}
