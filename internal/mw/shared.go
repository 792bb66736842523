package mw

import (
	"context"

	"repro/internal/engine"
)

// This file is the middleware half of multi-tenant scan sharing (the serve
// subsystem's tentpole): when several concurrent tree builds all need a
// server scan of the same table, each session splits its Step into
// BeginSharedBatch / Finish and contributes a ScanConsumer to one physical
// engine.ScanGroups pass. The consumer runs the exact colConsumer
// kernel a solo columnar scan runs — counting into a private shard,
// policing the session's own budget — while the shared page I/O is charged
// once, to the fleet's io meter, instead of once per session.

// SharedBatch is one session's half-open batch awaiting a shared scan. It is
// produced by BeginSharedBatch and must be completed with Finish (after the
// shared scan ran its consumer) or released with Abort.
type SharedBatch struct {
	ctx      context.Context // the session's: Finish's statements check it
	m        *Middleware
	r        *batchRun
	srv      *engine.Server
	needCols []int
	cons     *engine.ScanConsumer
	sh       *scanShard
	done     bool
}

// NextBatchShareable reports whether this middleware's next scheduled batch
// would be a shareable scan of the base table: requests are pending, none of
// them has staged data (Rule 1 would pick the staged tier first), and no
// auxiliary access structure stands in for the table. It inspects
// scheduler state only — nothing is scheduled or charged — so a fleet can
// poll it every round to decide which sessions join the shared scan.
func (m *Middleware) NextBatchShareable() bool {
	if len(m.queue) == 0 || m.cfg.Access != AccessScan {
		return false
	}
	for _, r := range m.queue {
		if len(m.ancestorSources(r.NodeID)) > 0 {
			return false
		}
	}
	return true
}

// BeginSharedBatch schedules the session's next batch and, when it is a
// shareable columnar server scan, opens it half-way: staging plan, admission,
// scan span — everything up to (but excluding) the scan itself — and returns
// a SharedBatch whose Consumer the caller attaches to one
// engine.ScanGroups pass covering the whole cohort.
//
// Not every scheduled batch is shareable (staged sources, empty admission
// after fallback routing); those execute to completion right here, exactly
// as StepContext(ctx) would, and return their results with a nil
// SharedBatch. A nil, nil, nil return means no requests were pending. ctx is
// the session's: Finish's §4.1.1 statements check it too. The shared scan
// itself is the cohort's, so a session cancelled during it is released by
// Abort once the scan ends.
func (m *Middleware) BeginSharedBatch(ctx context.Context) (*SharedBatch, []*Result, error) {
	b := m.schedule()
	if b == nil {
		return nil, nil, nil
	}
	r, err := m.beginBatch(b)
	if err != nil {
		return nil, nil, err
	}
	if b.kind != srcServer || m.cfg.Access != AccessScan || len(r.live) == 0 {
		results, err := m.runBatch(ctx, r)
		return nil, results, err
	}

	sb := &SharedBatch{ctx: ctx, m: m, r: r, srv: m.srv, needCols: m.columnarNeedCols(r.plan, r.live)}
	r.openScan()
	r.ssp.Attr("shared", 1)

	// The consumer runs on the session meter: the fleet coordinator drives
	// the shared scan single-threaded and engine.ScanGroups feeds consumers
	// in deterministic slice order. Its shard polices the session's whole
	// budget, exactly like a solo pass.
	sb.sh = r.newShard()
	r.tagRows()
	sb.cons = r.colConsumer(0, m.meter, sb.sh)
	return sb, nil, nil
}

// Consumer returns the session's attachment for the cohort's shared scan.
func (sb *SharedBatch) Consumer() *engine.ScanConsumer { return sb.cons }

// NeedCols returns the columns this session's batch must read (nil = all);
// the cohort's physical scan reads the union.
func (sb *SharedBatch) NeedCols() []int { return sb.needCols }

// Finish completes the batch after the shared scan ran the session's
// consumer: the session's clock absorbs the scan's shared I/O wait
// (ioElapsedNS — the io meter's advance during the pass, which charged the
// cohort's pages once), the scan span closes, the shard settles through the
// same post-scan path a solo batch takes, and the batch finalizes (staging,
// results, fallback, the batch span's attributes).
func (sb *SharedBatch) Finish(ioElapsedNS int64) ([]*Result, error) {
	if sb.done {
		panic("mw: SharedBatch finished twice")
	}
	sb.done = true
	m, r := sb.m, sb.r
	if ioElapsedNS > 0 {
		m.meter.Advance(ioElapsedNS)
	}
	pairRows.Add(sb.cons.PairRows())
	m.scratch[0].cons.end(true)
	r.closeScan()
	r.settle(sb.sh)
	return m.finishBatch(sb.ctx, r)
}

// Abort releases a half-open shared batch without running its scan: staging
// writers are aborted and the spans closed. The batch's requests are lost to
// this middleware (the build should be abandoned), so it exists for fleet
// error paths only.
func (sb *SharedBatch) Abort() {
	if sb.done {
		return
	}
	sb.done = true
	sb.m.scratch[0].cons.end(false)
	sb.m.abortTees(sb.r.plan.fileTees)
	sb.r.ssp.End()
	sb.r.bsp.End()
}
