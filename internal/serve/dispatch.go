package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
	"repro/internal/sqlparser"
)

// Dispatcher is the one place statement text becomes a route. Execute parses
// the statement once and switches on the AST node:
//
//	*sqlparser.BuildTree                   → the fleet queue
//	*sqlparser.ScoreTable, served table    → the fleet queue
//	*sqlparser.ShowSessions                → the dispatcher's session snapshot
//	anything else                          → the engine, already parsed
//
// The wire daemon frames Execute's result and cmd/sqlsh prints it, so a
// statement behaves identically on both surfaces.
//
// Concurrency model: callers may be many goroutines, but everything that
// touches the engine is serialized — engine statements under the engine
// mutex, fleet requests by a single coordinator goroutine that drains the
// queue into fleet runs. Requests queued while a run executes batch into the
// next run, which is exactly the window in which scan sharing pays. The
// coordinator starts with the first fleet request and stops in Close. A build
// is answered when its run ends; a SCORE TABLE is answered when its session
// opens, with the result the run is about to fill, so the caller's goroutine
// reads it behind the scan's watermark while the coordinator scans — the run
// itself never waits for a reader. A fleet statement whose context ends
// leaves its run (Session.Cancel); the daemon ends it on a TCancel.
type Dispatcher struct {
	eng *engine.Engine
	srv *engine.Server // nil = no served table: every statement goes to the engine
	cfg DaemonConfig

	emu sync.Mutex // engine access: engine statements and fleet runs

	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []*fleetReq
	runSeq  int64          // runs the coordinator has taken; tests wait on it
	shown   [][]engine.Val // SHOW SESSIONS: the rows of the last run that opened sessions
	started bool
	closed  bool
	wg      sync.WaitGroup // the coordinator

	// onFleet is a test seam, always nil in production: invoked with each
	// run's fleet once its sessions are open, before Run, so a test can hold a
	// run back or arm Fleet.runHook.
	onFleet func(*Fleet)
}

// NewDispatcher creates a dispatcher over the engine and, when srv is
// non-nil, the served table the fleet builds and scores.
func NewDispatcher(eng *engine.Engine, srv *engine.Server, cfg DaemonConfig) *Dispatcher {
	d := &Dispatcher{eng: eng, srv: srv, cfg: cfg}
	d.qcond = sync.NewCond(&d.qmu)
	return d
}

// Result is one executed statement's outcome.
type Result struct {
	// Set holds materialized rows; nil for DDL, DML and fleet-scored results.
	Set *engine.ResultSet
	// Score and Model are a SCORE TABLE in the fleet: the raw predictions,
	// handed out while the run may still be filling them. Rows [0, n) are
	// final once Score.Wait returned n, which is how the daemon frames them
	// batch by batch without materializing them; a run that fails after the
	// statement was answered ends Score with the error.
	Score *engine.ScoreResult
	Model *engine.Model

	cost    time.Duration
	session *Session // of Score: its latency is the cost, known once Score ended
}

// Rows returns the result as a row set in either case (nil when the
// statement produced none). For a fleet-scored result it waits for the run to
// finish it, and returns the run's error if it failed instead.
func (r *Result) Rows() (*engine.ResultSet, error) {
	if r.Score == nil {
		return r.Set, nil
	}
	if err := r.Score.Err(); err != nil {
		return nil, err
	}
	return r.Score.ResultSet(r.Model), nil
}

// Cost returns the virtual time the statement took. A fleet-scored
// statement's is its session's latency, which the fleet sets before it
// finishes Score: Cost waits for that, and is zero if the run failed.
func (r *Result) Cost() time.Duration {
	if r.session == nil {
		return r.cost
	}
	if r.Score.Err() != nil {
		return 0
	}
	return time.Duration(r.session.LatencyNS())
}

// Execute runs one statement.
func (d *Dispatcher) Execute(sql string) (*Result, error) { return d.execute(sql, nil) }

// execute runs one statement. A fleet statement runs under the context watch
// returns, when watch is non-nil: it is called once the statement is routed
// to the fleet, and ending that context cancels the statement's session.
// Engine statements never call it.
func (d *Dispatcher) execute(sql string, watch func() context.Context) (*Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *sqlparser.ShowSessions:
		d.qmu.Lock()
		defer d.qmu.Unlock()
		return &Result{Set: &engine.ResultSet{Cols: sessionCols, Rows: append([][]engine.Val(nil), d.shown...)}}, nil
	case *sqlparser.BuildTree:
		if d.srv == nil {
			break // the engine answers ErrNeedsServing
		}
		return d.enqueue(st, watch)
	case *sqlparser.ScoreTable:
		if d.srv != nil && s.Table == d.srv.TableName() {
			return d.enqueue(st, watch)
		}
	}
	d.emu.Lock()
	defer d.emu.Unlock()
	before := d.eng.Meter().Now()
	rs, err := d.eng.ExecStmt(st, sql)
	if err != nil {
		return nil, err
	}
	return &Result{Set: rs, cost: d.eng.Meter().Now() - before}, nil
}

// Close stops the coordinator after it has answered every queued request;
// later fleet statements fail. Idempotent.
func (d *Dispatcher) Close() {
	d.qmu.Lock()
	d.closed = true
	d.qcond.Broadcast()
	d.qmu.Unlock()
	d.wg.Wait()
}

// fleetReq is one statement — a *sqlparser.BuildTree, or a
// *sqlparser.ScoreTable over the served table — waiting for the coordinator.
// Ending ctx cancels it.
type fleetReq struct {
	stmt sqlparser.Statement
	ctx  context.Context
	done chan fleetResp
}

type fleetResp struct {
	res *Result
	err error
}

// enqueue hands a statement to the coordinator, under the context watch
// returns (never ended when watch is nil), and waits for its result.
func (d *Dispatcher) enqueue(st sqlparser.Statement, watch func() context.Context) (*Result, error) {
	req := &fleetReq{stmt: st, ctx: context.Background(), done: make(chan fleetResp, 1)}
	if watch != nil {
		req.ctx = watch()
	}
	d.qmu.Lock()
	if d.closed {
		d.qmu.Unlock()
		return nil, fmt.Errorf("serve: dispatcher is draining")
	}
	if !d.started {
		d.started = true
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.coordinate()
		}()
	}
	d.queue = append(d.queue, req)
	d.qcond.Broadcast()
	d.qmu.Unlock()
	resp := <-req.done
	return resp.res, resp.err
}

// coordinate drains the queue into fleet runs, so requests that arrive while
// a run executes form the next run's cohort.
func (d *Dispatcher) coordinate() {
	for {
		d.qmu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.qcond.Wait()
		}
		if len(d.queue) == 0 {
			d.qmu.Unlock()
			return
		}
		batch := d.queue
		d.queue = nil
		d.runSeq++
		seq := d.runSeq
		d.qmu.Unlock()
		d.runFleet(seq, batch)
	}
}

// runFleet executes one cohort — builds and scoring sessions — as a fleet
// run and answers every request: scoring requests once every session is open,
// before the run, with the result it will fill (failures knowable by then —
// an unknown model, a table the model does not fit — fail the statement
// outright; a later one fails the result, Fleet.Run sees to that), builds
// after it. Every session arrives at virtual time zero. A request whose
// context has ended by the time its session would open is answered with the
// context's error; one whose context ends later cancels its session, which
// leaves the run (Session.Cancel) and answers with Session.Err. seq numbers
// the run: it is the cohort column of SHOW SESSIONS.
func (d *Dispatcher) runFleet(seq int64, batch []*fleetReq) {
	answered := make([]bool, len(batch))
	answer := func(i int, res *Result, err error) {
		if !answered[i] {
			answered[i] = true
			batch[i].done <- fleetResp{res: res, err: err}
		}
	}
	fail := func(err error) {
		for i := range batch {
			answer(i, nil, err)
		}
	}
	var col *obs.Trace // the cohort's trace, which OUTPUT TRACE and EXPLAIN read
	for _, r := range batch {
		if b, ok := r.stmt.(*sqlparser.BuildTree); ok && (b.Output == sqlparser.OutputTrace || b.Output == sqlparser.OutputExplain) {
			col = obs.NewTrace()
			break
		}
	}

	d.emu.Lock()
	defer d.emu.Unlock()
	fleet, err := NewFleet(d.srv, col, d.cfg.Fleet)
	if err != nil {
		fail(err)
		return
	}
	sessions := make([]*Session, len(batch))
	opened := false
	for i, r := range batch {
		if err := r.ctx.Err(); err != nil {
			answer(i, nil, err)
			continue
		}
		switch s := r.stmt.(type) {
		case *sqlparser.BuildTree:
			sessions[i], err = fleet.Open("", dtree.Options{MaxDepth: s.MaxDepth, MinRows: s.MinRows}, 0)
		case *sqlparser.ScoreTable:
			// Resolve the model and open the session under the engine mutex;
			// an unknown model, or one the table cannot be scored with, fails
			// its own request, not the cohort.
			m, serr := d.eng.Model(s.Model)
			if serr == nil {
				sessions[i], serr = fleet.OpenScore("", m, 1, 0)
			}
			if serr != nil {
				answer(i, nil, serr)
				continue
			}
		}
		if err != nil {
			fail(err)
			return
		}
		opened = true
		defer context.AfterFunc(r.ctx, sessions[i].Cancel)()
	}
	if opened {
		d.show(seq, sessions)
		fleet.ended = d.mark
	}
	if d.onFleet != nil {
		d.onFleet(fleet)
	}
	streaming := false
	for i, s := range sessions {
		if s != nil && s.model != nil {
			answer(i, &Result{Score: s.Score(), Model: s.model, session: s}, nil)
			streaming = true
		}
	}
	if streaming {
		// Let the answered callers start following their results before the
		// scan takes this P (see engine.ScoreResult's publish).
		runtime.Gosched()
	}
	if opened {
		if err := fleet.Run(); err != nil {
			fail(err)
			return
		}
	}

	var traced map[string][]string // OUTPUT → the trace's lines in that rendering
	if col != nil {
		trace, err := textLines(func(w io.Writer) error { return col.Write(w, "ndjson") })
		if err != nil {
			fail(err)
			return
		}
		explain, err := textLines(profile.Compute(col).WriteText)
		if err != nil {
			fail(err)
			return
		}
		traced = map[string][]string{sqlparser.OutputTrace: trace, sqlparser.OutputExplain: explain}
	}
	for i, r := range batch {
		if answered[i] {
			continue
		}
		s, b := sessions[i], r.stmt.(*sqlparser.BuildTree) // every score was answered before the run
		if err := s.Err(); err != nil {
			answer(i, nil, err) // cancelled: there is no tree
			continue
		}
		if b.Model != "" {
			// Register the compiled tree while still holding the engine
			// mutex, so the model is scoreable the moment the build
			// responds.
			m, err := dtree.Compile(s.Tree(), b.Model)
			if err == nil {
				err = d.eng.RegisterModel(m)
			}
			if err != nil {
				answer(i, nil, err)
				continue
			}
		}
		answer(i, &Result{Set: buildResult(b.Output, s, fleet, traced[b.Output]), cost: time.Duration(s.LatencyNS())}, nil)
	}
}

// textLines returns what write writes, split into lines.
func textLines(write func(io.Writer) error) ([]string, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n"), nil
}

// sessionCols are SHOW SESSIONS' columns: per session of a run, its id within
// the run, build or score, the run's number (cohort), its virtual arrival
// offset in ns, and its state — running, then done, cancelled or failed.
var sessionCols = []string{"id", "kind", "cohort", "arrival", "state"}

// show replaces the SHOW SESSIONS snapshot with the run's open sessions, each
// running; runFleet calls it only for a run that opened one, and the run marks
// each session's final state as it ends it (mark), before the session's result
// finishes. The snapshot is copied out of the sessions and kept under qmu, so
// the statement answers while a run holds emu and never reads a live Session.
func (d *Dispatcher) show(seq int64, sessions []*Session) {
	var rows [][]engine.Val
	for _, s := range sessions {
		if s == nil {
			continue // answered without a session
		}
		kind := "build"
		if s.model != nil {
			kind = "score"
		}
		rows = append(rows, []engine.Val{engine.IntVal(int64(s.ID)), engine.StrVal(kind),
			engine.IntVal(seq), engine.IntVal(s.ArrivalNS()), engine.StrVal("running")})
	}
	d.qmu.Lock()
	d.shown = rows
	d.qmu.Unlock()
}

// mark writes session s's final state into the SHOW SESSIONS snapshot, which
// is its run's: the run holds emu until it returns. The row is replaced, not
// written in place: a snapshot already answered shares the rows it was copied
// with.
func (d *Dispatcher) mark(s *Session, state string) {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	for i, row := range d.shown {
		if row[0].I == int64(s.ID) {
			row = slices.Clone(row)
			row[4] = engine.StrVal(state)
			d.shown[i] = row
		}
	}
}

// buildResult renders one build session's outcome in the statement's OUTPUT
// shape; traced holds the cohort trace's lines for TRACE and EXPLAIN.
func buildResult(output string, s *Session, f *Fleet, traced []string) *engine.ResultSet {
	oneColumn := func(col string, lines []string) *engine.ResultSet {
		rs := &engine.ResultSet{Cols: []string{col}}
		for _, line := range lines {
			rs.Rows = append(rs.Rows, []engine.Val{engine.StrVal(line)})
		}
		return rs
	}
	switch output {
	case sqlparser.OutputTree:
		return oneColumn("node", s.Tree().DumpLines())
	case sqlparser.OutputTrace:
		// The trace covers the whole cohort: one proc per session, in
		// session order. A single-session run's trace is exactly the
		// in-process build's.
		return oneColumn("span", traced)
	case sqlparser.OutputExplain:
		// The profile of that trace, as WriteText renders it.
		return oneColumn("explain", traced)
	}
	st := s.Tree().Stats()
	rs := &engine.ResultSet{Cols: []string{"stat", "value"}}
	add := func(name string, v int64) {
		rs.Rows = append(rs.Rows, []engine.Val{engine.StrVal(name), engine.IntVal(v)})
	}
	add("session", int64(s.ID))
	add("nodes", int64(st.Nodes))
	add("leaves", int64(st.Leaves))
	add("max_depth", int64(st.Depth))
	add("arrival_ns", s.ArrivalNS())
	add("latency_ns", s.LatencyNS())
	add("server_pages", s.Meter().Count(sim.CtrServerPages))
	add("shared_io_pages", f.IOMeter().Count(sim.CtrServerPages))
	return rs
}
