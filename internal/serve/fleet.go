// Package serve hosts the multi-tenant serving layer: a fleet scheduler that
// admits N concurrent decision-tree builds against one engine — dividing the
// middleware memory budget fairly, sharing physical table scans across
// sessions, and simulating every session on its own virtual clock — plus the
// wire daemon (daemon.go) that exposes the fleet over the network protocol
// cmd/served and the ccsql database/sql driver speak.
//
// Determinism: each session's clock is a pure function of the work charged
// to it (sim.Clocks), sessions are admitted in arrival order, solo steps go
// to the session furthest behind in virtual time (ties on id), and shared
// scans feed their consumers in session-id order. The whole fleet therefore
// simulates identically regardless of host scheduling, and any session's
// tree is byte-identical to the tree a single-tenant build produces from the
// same data and options.
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
	// is re-sliced from TotalMemory as sessions join and leave, Session is
	// the session id.
	Base mw.Config
	// TotalMemory is the physical CC-memory budget shared by all running
	// sessions, divided evenly among them (0 = unlimited for everyone).
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
// scoring sessions carry a Scorer and finish in one scan.
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
	scorer   *mw.Scorer
	tree     *dtree.Tree
	score    *engine.ScoreResult
	finishNS int64
	admitted bool
	done     bool
}

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
	if cfg.ScanSharing {
		if cfg.Base.Access != mw.AccessScan {
			return nil, fmt.Errorf("serve: scan sharing requires sequential server access (mw.AccessScan)")
		}
	}
	costs := srv.Meter().Costs()
	return &Fleet{
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
// observability proc, and creates its middleware view and builder.
func (f *Fleet) admit(s *Session) error {
	s.meter = f.clocks.Open(s.ID, s.arrivalNS)
	if wait := f.freeNS - int64(s.meter.Now()); wait > 0 {
		// The slot the session waited for freed at freeNS; it starts there.
		s.meter.Advance(wait)
	}
	cfg := f.cfg.Base
	cfg.Session = s.ID
	cfg.Memory = f.cfg.TotalMemory
	view := f.srv.View(s.meter, f.col.Proc(s.Label, s.meter))
	if s.model != nil {
		sc, err := mw.NewScorer(view, s.model, s.score)
		if err != nil {
			return err
		}
		s.scorer = sc
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

// reslice divides the fleet memory budget evenly among the running sessions.
func (f *Fleet) reslice(running []*Session) {
	if f.cfg.TotalMemory == 0 || len(running) == 0 {
		return
	}
	slice := f.cfg.TotalMemory / int64(len(running))
	if slice < 1 {
		slice = 1
	}
	for _, s := range running {
		if s.m != nil { // scoring sessions hold no CC memory
			s.m.SetMemoryBudget(slice)
		}
	}
}

// Run admits and executes every opened session to completion. Solo steps go
// to the running session furthest behind in virtual time; with ScanSharing,
// rounds where two or more sessions' next batch is a shareable server scan
// run those batches against one physical scan. Returns the first error.
func (f *Fleet) Run() (err error) {
	if f.ran {
		return fmt.Errorf("serve: fleet already ran")
	}
	f.ran = true
	// An error abandons the round mid-flight: before returning, end every
	// admitted, unfinished build's spans (sharedRound has already released what
	// its participants held) and release its middleware (staging files).
	// Middleware.Close is idempotent, so retired sessions are unaffected.
	// Then, either way, the run's outcome ends every scoring result — a
	// statement of a cohort succeeds or fails with its run, so a reader that
	// followed the scan learns the verdict here, after everything it may ask
	// of a finished session (its latency) or expect of a failed one (spans
	// ended, files gone) is in place, and never waits forever.
	defer func() {
		if err != nil {
			for _, s := range f.sessions {
				if s.admitted && !s.done {
					if s.b != nil {
						s.b.Abort()
					}
					s.Close()
				}
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
		grew := false
		for len(pending) > 0 && (f.cfg.MaxSessions == 0 || len(running) < f.cfg.MaxSessions) {
			s := pending[0]
			pending = pending[1:]
			if err := f.admit(s); err != nil {
				return err
			}
			running = append(running, s)
			grew = true
		}
		if grew {
			f.reslice(running)
		}
		return nil
	}

	for {
		if err := admit(); err != nil {
			return err
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
				if s.scorer != nil {
					if s.scorer.Shareable() {
						cohort = append(cohort, s)
					}
				} else if s.m.NextBatchShareable() {
					cohort = append(cohort, s)
				}
			}
		}
		if len(cohort) >= 2 {
			if err := f.sharedRound(cohort); err != nil {
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
			s := f.byID[id]
			if s.scorer != nil {
				if err := s.scorer.RunSolo(); err != nil {
					return err
				}
			} else {
				results, err := s.m.Step()
				if err != nil {
					return err
				}
				if err := s.b.Feed(results); err != nil {
					return err
				}
			}
		}

		// Retire finished sessions: their slot frees at their finish time,
		// and the survivors' budgets re-slice.
		out := running[:0]
		retired := false
		for _, s := range running {
			if s.scorer != nil {
				if !s.scorer.Done() {
					out = append(out, s)
					continue
				}
			} else {
				if s.b.Pending() > 0 {
					out = append(out, s)
					continue
				}
				tree, err := s.b.Finish()
				if err != nil {
					return err
				}
				s.tree = tree
			}
			s.finishNS = int64(s.meter.Now())
			if s.finishNS > f.freeNS {
				f.freeNS = s.finishNS
			}
			if err := s.Close(); err != nil {
				return err
			}
			f.clocks.Close(s.ID)
			s.done = true
			retired = true
		}
		running = out
		if retired {
			f.reslice(running)
		}
	}
}

// sharedRound runs one batch for every cohort session — build batches and
// scoring passes alike — against a single physical columnar scan. Sessions
// begin in id order; build batches that turn out not to be shareable after
// scheduling execute solo inside Begin. The physical scan charges the
// cohort's cursor open and page I/O once, to the fleet io meter, and every
// participant's clock then absorbs that I/O wait. On an error every participant
// that began and has not finished is aborted — its staging writers, its scan
// and batch spans, a scorer's score span — so a failed round leaks nothing.
func (f *Fleet) sharedRound(cohort []*Session) (err error) {
	type part struct {
		s        *Session
		sb       *mw.SharedBatch // build sessions
		cons     *engine.ScanConsumer
		needCols []int // nil = all columns
	}
	var parts []part
	defer func() {
		if err != nil {
			for _, p := range parts { // Abort is a no-op on a finished participant
				if p.sb != nil {
					p.sb.Abort()
				} else {
					p.s.scorer.Abort()
				}
			}
		}
	}()
	for _, s := range cohort {
		if s.scorer != nil {
			cons, needCols, err := s.scorer.BeginShared()
			if err != nil {
				return err
			}
			parts = append(parts, part{s: s, cons: cons, needCols: needCols})
			continue
		}
		sb, results, err := s.m.BeginSharedBatch()
		if err != nil {
			return err
		}
		if sb == nil {
			if err := s.b.Feed(results); err != nil {
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
	engine.ScanGroups(context.Background(), f.srv.ColGroups(cols), cons, 0, f.srv.NumColGroups(), f.io) // resident groups: no read can fail
	ioElapsed := int64(f.io.Now()) - ioStart

	for _, p := range parts {
		if p.s.scorer != nil {
			p.s.scorer.FinishShared(ioElapsed)
			continue
		}
		results, err := p.sb.Finish(ioElapsed)
		if err != nil {
			return err
		}
		if err := p.s.b.Feed(results); err != nil {
			return err
		}
	}
	return nil
}
