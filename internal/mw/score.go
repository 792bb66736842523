package mw

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Scorer is one in-database scoring session: a registered model applied to
// the server's whole table through the engine's vectorized scoring operator.
// A scoring session is the serving-side dual of a tree build — it is admitted
// to the same fleet, simulates on its own virtual clock, and can attach to
// the same shared physical scan a cohort of builds rides — but it completes
// in a single scan pass, so its lifecycle is just RunSolo (a private
// partitioned scan) or BeginShared/FinishShared (one consumer on the
// cohort's scan). Either way the predictions land in the result the session
// was created over — opened by its owner (engine.Server.OpenScore), readable
// behind its watermark while the scan runs, and ended by its owner too.
type Scorer struct {
	srv   *engine.Server
	model *engine.Model
	res   *engine.ScoreResult

	begun bool // between BeginShared and FinishShared / Abort
	ssp   *obs.Span
	snap  sim.Snapshot
	done  bool
}

// NewScorer creates a scoring session that fills res, the result opened on
// the server for model. srv should be a session-scoped View so scoring
// charges land on the session's clock.
func NewScorer(srv *engine.Server, model *engine.Model, res *engine.ScoreResult) (*Scorer, error) {
	if model == nil || res == nil {
		return nil, fmt.Errorf("mw: scorer needs a model and an opened result")
	}
	return &Scorer{srv: srv, model: model, res: res}, nil
}

// Done reports whether the session has produced its predictions.
func (sc *Scorer) Done() bool { return sc.done }

// Shareable reports whether the session's (single) scan can join a shared
// columnar pass: it has not run yet.
func (sc *Scorer) Shareable() bool { return !sc.done }

// RunSolo scores the table with the session's own scan, paying
// its pages privately — the path a lone scoring session takes.
func (sc *Scorer) RunSolo() error {
	if sc.done {
		return fmt.Errorf("mw: scorer already ran")
	}
	sc.srv.ScoreInto(sc.res, sc.model)
	sc.done = true
	return nil
}

// BeginShared opens the session's attachment to a cohort's shared scan: a
// consumer charging scoring work to the session meter, plus the columns the
// physical scan must read for it. The caller must complete the pass with
// FinishShared.
func (sc *Scorer) BeginShared() (*engine.ScanConsumer, []int, error) {
	if sc.done {
		return nil, nil, fmt.Errorf("mw: scorer already ran")
	}
	meter := sc.srv.Meter()
	sc.ssp = sc.srv.Tracer().Start(obs.CatScore, "score").
		AttrStr("model", sc.model.Name).
		Attr("model_nodes", int64(len(sc.model.Nodes))).
		Attr("shared", 1)
	if sc.ssp != nil {
		sc.snap = meter.Snapshot()
	}
	cons := sc.res.Consumer(sc.model, meter)
	sc.begun = true
	return &engine.ScanConsumer{
		Filter: predicate.MatchAll(),
		Lane:   meter,
		Fn:     cons.Consume,
	}, cons.NeedCols(), nil
}

// Abort releases a begun, unfinished attachment to a shared scan — its score
// span — without completing the pass; for fleet error paths. A no-op on a
// session that has not begun or has finished.
func (sc *Scorer) Abort() {
	if !sc.begun {
		return
	}
	sc.ssp.End()
	sc.begun = false
}

// FinishShared completes the session after the shared scan ran its
// consumer: the session clock absorbs the cohort's shared I/O wait.
func (sc *Scorer) FinishShared(ioElapsedNS int64) {
	if !sc.begun {
		panic("mw: FinishShared without BeginShared")
	}
	meter := sc.srv.Meter()
	if ioElapsedNS > 0 {
		meter.Advance(ioElapsedNS)
	}
	if sc.ssp != nil {
		sc.ssp.SetRows(meter.CountSince(sc.snap, sim.CtrScoreRows)).
			Attr("model_node_probes", meter.CountSince(sc.snap, sim.CtrModelProbes))
	}
	sc.ssp.End()
	sc.begun = false
	sc.done = true
}
