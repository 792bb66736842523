// Package serve hosts the multi-tenant serving layer: a fleet scheduler that
// admits N concurrent decision-tree builds against one engine — giving each
// a fixed slice TotalMemory / MaxSessions of the middleware memory budget at
// admission, sharing physical table scans across sessions, and simulating
// every session on its own virtual clock — plus the wire daemon (daemon.go)
// that exposes the fleet over the network protocol cmd/served and the ccsql
// database/sql driver speak.
//
// Determinism: each session's clock is a pure function of the work charged
// to it (sim.Clocks), sessions are admitted in arrival order, solo steps go
// to the session furthest behind in virtual time (ties on id), and shared
// scans feed their consumers in session-id order. The whole fleet therefore
// simulates identically regardless of host scheduling, and any session's
// tree is byte-identical to the tree a single-tenant build produces from the
// same data, options and memory slice — whatever the other sessions do.
package serve

import (
	"context"
	"fmt"

	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FleetConfig tunes the multi-tenant scheduler.
type FleetConfig struct {
	// Base is the middleware configuration template every session builds
	// with. Its Memory and Session fields are managed by the fleet: Memory
	// is the session's slice of TotalMemory, Session is the session id.
	Base mw.Config
	// TotalMemory is the physical CC-memory budget of the fleet. Each build
	// gets a fixed slice TotalMemory / MaxSessions at admission (at least 1
	// byte), so it needs a session cap (0 = unlimited for everyone).
	TotalMemory int64
	// MaxSessions caps the concurrently running sessions; arrivals beyond
	// the cap wait for a slot in arrival order (0 = unlimited).
	MaxSessions int
	// ScanSharing attaches concurrent sessions whose next batch scans the
	// server table to one physical columnar scan, charging the page I/O
	// once. Requires sequential server access (mw.AccessScan).
	ScanSharing bool
}

// Session is one tenant unit of work — a tree build, or an in-database
// scoring pass over the served table — with its own virtual clock, created
// at admission time. Builds carry a middleware and resumable builder;
// scoring sessions carry a server view and finish in one scoring pass
// (engine.ScorePass).
type Session struct {
	ID    int
	Label string

	opt       dtree.Options
	arrivalNS int64

	// Scoring sessions only (model non-nil marks the kind).
	model *engine.Model

	meter    *sim.Meter
	m        *mw.Middleware
	b        *dtree.Builder
	view     *engine.Server // scoring sessions: the server on the session's clock and trace
	scored   bool           // scoring sessions: the pass has run
	tree     *dtree.Tree
	score    *engine.ScoreResult
	finishNS int64
	admitted bool
	done     bool

	ctx    context.Context // the session's own, a child of the fleet's
	cancel context.CancelFunc
	err    error // why the session left early (Err)
}

// Cancel cancels the session, from any goroutine, before or during Run: it
// leaves its cohort at the end of the round it is in — sooner when its solo
// pass or statement notices, which they do once per block — or, cancelled
// between rounds, before Run or before its admission, as soon as it is
// admitted, before any round selects it: a scorer then publishes no row. The
// rest of the run carries on.
func (s *Session) Cancel() { s.cancel() }

// Err returns, once Run has returned, why the session left before it
// finished: its context's error when it was cancelled, nil otherwise.
func (s *Session) Err() error { return s.err }

// Tree returns the session's finished tree (nil before Run completes, and
// always nil for scoring sessions).
func (s *Session) Tree() *dtree.Tree { return s.tree }

// Score returns a scoring session's result (always nil for build sessions):
// allocated when the session opens, readable behind its watermark while Run
// scans (engine.ScoreResult.Wait), and ended by Run's return — finished, or
// failed with Run's error.
func (s *Session) Score() *engine.ScoreResult { return s.score }

// Meter returns the session's virtual clock (nil before admission).
func (s *Session) Meter() *sim.Meter { return s.meter }

// ArrivalNS returns the session's arrival offset in virtual nanoseconds.
func (s *Session) ArrivalNS() int64 { return s.arrivalNS }

// LatencyNS returns the session's end-to-end virtual latency: admission
// wait plus build time.
func (s *Session) LatencyNS() int64 { return s.finishNS - s.arrivalNS }

// Close releases the session's middleware resources (staging files). Run
// closes finished sessions itself; Close exists for error paths and is
// idempotent.
func (s *Session) Close() error {
	if s.m == nil {
		return nil
	}
	return s.m.Close()
}

// Fleet runs a set of sessions against one engine server.
type Fleet struct {
	// ctx is the parent of every session's context; RunContext cancels it
	// with the run's, and when it returns.
	ctx  context.Context
	stop context.CancelFunc

	srv    *engine.Server
	cfg    FleetConfig
	col    *obs.Trace
	clocks *sim.Clocks
	io     *sim.Meter

	sessions []*Session
	byID     map[int]*Session
	lastID   int
	freeNS   int64
	ran      bool

	// ended, when set, is told each session's final state as the run ends
	// it — "done", "cancelled", or "failed" for every session of a run that
	// fails — before its scoring result finishes, so a reader that saw the
	// result end finds the state already written.
	ended func(s *Session, state string)

	// runHook is a test seam, always nil in production: invoked once per
	// scheduling round after admission, an error return simulates a mid-run
	// failure so tests can assert no admitted session's resources leak.
	runHook func() error
}

// NewFleet creates a fleet over the server. col may be nil (no
// observability); each session then runs untraced.
func NewFleet(srv *engine.Server, col *obs.Trace, cfg FleetConfig) (*Fleet, error) {
	if cfg.TotalMemory < 0 || cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("serve: negative fleet limit")
	}
	if cfg.TotalMemory > 0 && cfg.MaxSessions == 0 {
		return nil, fmt.Errorf("serve: TotalMemory %d needs MaxSessions > 0 to slice it", cfg.TotalMemory)
	}
	if cfg.ScanSharing {
		if cfg.Base.Access != mw.AccessScan {
			return nil, fmt.Errorf("serve: scan sharing requires sequential server access (mw.AccessScan)")
		}
	}
	costs := srv.Meter().Costs()
	ctx, stop := context.WithCancel(context.Background())
	return &Fleet{
		ctx:    ctx,
		stop:   stop,
		srv:    srv,
		cfg:    cfg,
		col:    col,
		clocks: sim.NewClocks(costs),
		io:     sim.NewMeter(costs),
		byID:   make(map[int]*Session),
	}, nil
}

// Open registers a session that will build a tree with the given options,
// arriving at the given virtual offset. Sessions must be opened in
// non-decreasing arrival order (use sim.Arrivals for a seeded schedule);
// admission happens inside Run.
func (f *Fleet) Open(label string, opt dtree.Options, arrivalNS int64) (*Session, error) {
	return f.register(&Session{Label: label, opt: opt, arrivalNS: arrivalNS}, "session-%d")
}

// OpenScore registers a scoring session: the model applied to the served
// table in one scan. Scoring sessions obey the same arrival-order and admission rules as
// builds and join shared scans with them. A model the table cannot be scored
// with fails here, and the session's result (Session.Score) exists from here
// on, so a reader can follow the run instead of waiting for it.
//
// Deprecated: workers is ignored. It stays until the benchmark stops passing
// it (ROADMAP item 1).
func (f *Fleet) OpenScore(label string, model *engine.Model, workers int, arrivalNS int64) (*Session, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: scoring session needs a model")
	}
	res, err := f.srv.OpenScore(model)
	if err != nil {
		return nil, err
	}
	return f.register(&Session{Label: label, model: model, score: res, arrivalNS: arrivalNS}, "score-%d")
}

// register gives s the next id — and, unlabelled, a label made from it — and
// appends it to the arrival-ordered session list.
func (f *Fleet) register(s *Session, labelFmt string) (*Session, error) {
	if f.ran {
		return nil, fmt.Errorf("serve: fleet already ran")
	}
	if n := len(f.sessions); n > 0 && s.arrivalNS < f.sessions[n-1].arrivalNS {
		return nil, fmt.Errorf("serve: session arrivals must be non-decreasing")
	}
	f.lastID++
	s.ID = f.lastID
	s.ctx, s.cancel = context.WithCancel(f.ctx)
	if s.Label == "" {
		s.Label = fmt.Sprintf(labelFmt, s.ID)
	}
	f.sessions = append(f.sessions, s)
	f.byID[s.ID] = s
	return s, nil
}

// Sessions returns the fleet's sessions in arrival order.
func (f *Fleet) Sessions() []*Session { return f.sessions }

// IOMeter returns the shared-scan clock domain: cursor opens and page I/O of
// shared scans are charged here, once per cohort.
func (f *Fleet) IOMeter() *sim.Meter { return f.io }

// MakespanNS returns the latest session finish time after Run.
func (f *Fleet) MakespanNS() int64 {
	var max int64
	for _, s := range f.sessions {
		if s.finishNS > max {
			max = s.finishNS
		}
	}
	return max
}

// TotalServerPages returns the modeled server page reads of the whole run:
// every session's own reads plus the shared-scan reads charged once to the
// io meter. This is the quantity scan sharing reduces.
func (f *Fleet) TotalServerPages() int64 {
	total := f.io.Count(sim.CtrServerPages)
	for _, s := range f.sessions {
		if s.meter != nil {
			total += s.meter.Count(sim.CtrServerPages)
		}
	}
	return total
}

// admit opens the session's clock, advancing it past its admission wait
// (arrivals beyond the session cap wait for a slot), wires its
// observability proc, and creates its middleware view and builder. A build's
// memory slice is fixed here for its whole run.
func (f *Fleet) admit(s *Session) error {
	s.meter = f.clocks.Open(s.ID, s.arrivalNS)
	if wait := f.freeNS - int64(s.meter.Now()); wait > 0 {
		// The slot the session waited for freed at freeNS; it starts there.
		s.meter.Advance(wait)
	}
	cfg := f.cfg.Base
	cfg.Session = s.ID
	cfg.Memory = f.cfg.TotalMemory // 0: unlimited
	if cfg.Memory > 0 {
		cfg.Memory = max(1, cfg.Memory/int64(f.cfg.MaxSessions)) // never 0, which is unlimited
	}
	view := f.srv.View(s.meter, f.col.Proc(s.Label, s.meter))
	if s.model != nil {
		s.view = view
		s.admitted = true
		return nil
	}
	m, err := mw.New(view, cfg)
	if err != nil {
		return err
	}
	s.m = m
	b, err := dtree.NewBuilder(m, s.opt)
	if err != nil {
		m.Close()
		return err
	}
	s.b = b
	s.admitted = true
	return nil
}

// Run is RunContext with a context that is never cancelled.
func (f *Fleet) Run() error { return f.RunContext(context.Background()) }

// RunContext admits and executes every opened session to completion. Solo
// steps go to the running session furthest behind in virtual time; with
// ScanSharing, rounds where two or more sessions' next batch is a shareable
// server scan run those batches against one physical scan. A cancelled
// session (Session.Cancel) leaves while the others carry on; a cancelled
// ctx ends the run with ctx.Err(). Returns the first error.
func (f *Fleet) RunContext(ctx context.Context) (err error) {
	if f.ran {
		return fmt.Errorf("serve: fleet already ran")
	}
	f.ran = true
	defer f.stop() // releases every session's context once the run is over
	defer context.AfterFunc(ctx, f.stop)()
	// An error abandons the round mid-flight: before returning, end every
	// admitted, unfinished build's spans (sharedRound has already released what
	// its participants held) and release its middleware (staging files).
	// Middleware.Close is idempotent, so retired sessions are unaffected.
	// Then, either way, the run's outcome ends every scoring result — a
	// statement of a cohort succeeds or fails with its run, so a reader that
	// followed the scan learns the verdict here, after everything it may ask
	// of a finished session (its latency) or expect of a failed one (spans
	// ended, files gone) is in place, and never waits forever. A session that
	// left keeps the outcome it left with.
	defer func() {
		if err != nil {
			for _, s := range f.sessions {
				if s.admitted && !s.done {
					if s.b != nil {
						s.b.Abort()
					}
					s.Close()
				}
				f.end(s, "failed")
			}
		}
		for _, s := range f.sessions {
			if s.score != nil {
				s.score.Finish(err)
			}
		}
	}()
	pending := append([]*Session(nil), f.sessions...)
	var running []*Session

	admit := func() error {
		for len(pending) > 0 && (f.cfg.MaxSessions == 0 || len(running) < f.cfg.MaxSessions) {
			s := pending[0]
			pending = pending[1:]
			if err := f.admit(s); err != nil {
				return err
			}
			running = append(running, s)
		}
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := admit(); err != nil {
			return err
		}
		// A session whose context ended before this round — cancelled before
		// the run, or before its admission — leaves before cohort selection:
		// it rides no shared scan and takes no step. Its slot frees for the
		// next admission.
		stay := running[:0]
		for _, s := range running {
			if s.ctx.Err() == nil {
				stay = append(stay, s)
			} else if err := f.leave(s); err != nil {
				return err
			}
		}
		if len(stay) < len(running) {
			running = stay
			continue
		}
		if f.runHook != nil {
			if err := f.runHook(); err != nil {
				return err
			}
		}
		if len(running) == 0 {
			return nil
		}

		var cohort []*Session
		if f.cfg.ScanSharing {
			for _, s := range running {
				if s.model != nil {
					if !s.scored {
						cohort = append(cohort, s)
					}
				} else if s.m.NextBatchShareable() {
					cohort = append(cohort, s)
				}
			}
		}
		if len(cohort) >= 2 {
			if err := f.sharedRound(ctx, cohort); err != nil {
				return err
			}
		} else {
			// Fair virtual-time scheduling: the session furthest behind
			// runs one batch. The clock set contains exactly the running
			// sessions.
			id, ok := f.clocks.Next(nil)
			if !ok {
				return fmt.Errorf("serve: no running session has an open clock")
			}
			if err := f.step(f.byID[id]); err != nil {
				return err
			}
		}

		// Retire finished sessions, and let cancelled ones leave: a slot frees
		// at its session's finish time. A session that left during the round
		// is already done.
		out := running[:0]
		for _, s := range running {
			if s.done {
				continue
			}
			finished := s.scored
			if s.b != nil {
				finished = s.b.Pending() == 0
			}
			var err error
			switch {
			case finished:
				if s.b != nil {
					if s.tree, err = s.b.Finish(); err != nil {
						return err
					}
				}
				err = f.retire(s)
			case s.ctx.Err() != nil:
				err = f.leave(s)
			default:
				out = append(out, s)
			}
			if err != nil {
				return err
			}
		}
		running = out
	}
}

// step runs one solo batch of s — a scoring pass, or one middleware Step fed
// to the builder — under the session's context. A session cancelled during
// it leaves (the pass or batch has already released what it held).
func (f *Fleet) step(s *Session) error {
	var err error
	if s.model != nil {
		if err = s.view.ScoreInto(s.ctx, s.score, s.model); err == nil {
			s.scored = true
		}
	} else {
		var results []*mw.Result
		if results, err = s.m.StepContext(s.ctx); err == nil {
			err = s.b.Feed(results)
		}
	}
	return f.settle(s, err)
}

// settle returns err, the outcome of s's batch or pass, unless s's own
// context ended it: then s leaves instead and the run carries on.
func (f *Fleet) settle(s *Session, err error) error {
	if err != nil && s.ctx.Err() != nil {
		return f.leave(s)
	}
	return err
}

// leave retires a cancelled session: its builder's spans end, its middleware
// closes, and its scoring result fails with the context's error. Whatever
// round it was in has already ended its batch or pass.
func (f *Fleet) leave(s *Session) error {
	s.err = s.ctx.Err()
	if s.b != nil {
		s.b.Abort()
	}
	err := f.retire(s)
	if s.score != nil {
		s.score.Finish(s.err)
	}
	return err
}

// end tells f.ended, if set, that s's run ended in state.
func (f *Fleet) end(s *Session, state string) {
	if f.ended != nil {
		f.ended(s, state)
	}
}

// retire ends a session's run: its finish time, its final state, the slot it
// frees, its middleware (staging files) and its clock.
func (f *Fleet) retire(s *Session) error {
	s.finishNS = int64(s.meter.Now())
	if s.finishNS > f.freeNS {
		f.freeNS = s.finishNS
	}
	s.done = true
	if s.err != nil {
		f.end(s, "cancelled")
	} else {
		f.end(s, "done")
	}
	f.clocks.Close(s.ID)
	return s.Close()
}

// sharedRound runs one batch for every cohort session — build batches and
// scoring passes alike — against a single physical columnar scan. Sessions
// begin in id order; build batches that turn out not to be shareable after
// scheduling execute solo inside Begin. The physical scan charges the
// cohort's cursor open and page I/O once, to the fleet io meter, and every
// participant's clock then absorbs that I/O wait. On an error every participant
// that began and has not finished is aborted — its staging writers, its scan
// and batch spans, a scoring pass's score span — so a failed round leaks
// nothing. A participant cancelled while the cohort scanned is aborted the
// same way and leaves; the others finish the round. The physical scan checks
// the run's ctx.
func (f *Fleet) sharedRound(ctx context.Context, cohort []*Session) (err error) {
	type part struct {
		s        *Session
		sb       *mw.SharedBatch   // build sessions
		pass     *engine.ScorePass // scoring sessions
		cons     *engine.ScanConsumer
		needCols []int // nil = all columns
	}
	var parts []part
	abort := func(p part) { // a no-op on a finished participant
		if p.sb != nil {
			p.sb.Abort()
		} else {
			p.pass.Abort()
		}
	}
	defer func() {
		if err != nil {
			for _, p := range parts {
				abort(p)
			}
		}
	}()
	for _, s := range cohort {
		if s.model != nil {
			pass := s.view.BeginScore(s.score, s.model, true)
			parts = append(parts, part{s: s, pass: pass, cons: pass.Consumer(), needCols: pass.NeedCols()})
			continue
		}
		sb, results, err := s.m.BeginSharedBatch(s.ctx)
		if sb == nil {
			if err == nil {
				err = s.b.Feed(results)
			}
			if err := f.settle(s, err); err != nil {
				return err
			}
			continue
		}
		parts = append(parts, part{s: s, sb: sb, cons: sb.Consumer(), needCols: sb.NeedCols()})
	}
	if len(parts) == 0 {
		return nil
	}

	// The physical scan reads the union of the columns any participant
	// needs; nil (all columns) from any participant forces a full read.
	union := true
	need := make([]bool, f.srv.Schema().NumCols())
	for _, p := range parts {
		if p.needCols == nil {
			union = false
			break
		}
		for _, c := range p.needCols {
			need[c] = true
		}
	}
	var cols []int
	if union {
		cols = make([]int, 0, len(need)) // non-nil: an empty union reads no pages
		for c, ok := range need {
			if ok {
				cols = append(cols, c)
			}
		}
	}

	cons := make([]*engine.ScanConsumer, len(parts))
	for i, p := range parts {
		cons[i] = p.cons
	}
	ioStart := int64(f.io.Now())
	if err := engine.ScanGroups(ctx, f.srv.ColGroups(cols), cons, 0, f.srv.NumColGroups(), f.io); err != nil {
		return err // resident groups: only ctx can fail the scan
	}
	ioElapsed := int64(f.io.Now()) - ioStart

	for _, p := range parts {
		if p.s.ctx.Err() != nil {
			abort(p)
			if err := f.leave(p.s); err != nil {
				return err
			}
			continue
		}
		if p.pass != nil {
			p.pass.End(ioElapsed)
			p.s.scored = true
			continue
		}
		results, err := p.sb.Finish(ioElapsed)
		if err == nil {
			err = p.s.b.Feed(results)
		}
		if err := f.settle(p.s, err); err != nil {
			return err
		}
	}
	return nil
}
