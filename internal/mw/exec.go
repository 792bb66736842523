package mw

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// ccWork is the working state for one admitted request during a batched
// scan: the request, its counted attribute set (remaining attributes plus
// the class column) and, once the scan is settled, its counts table.
// A node the batch derives instead of counting (derive.go) names its parent's
// held table, which becomes its own after the pass.
type ccWork struct {
	req   *Request
	attrs []int
	cc    *cc.Table
	from  *cc.Table
}

// batchRun carries one scheduled batch through its three execution phases —
// beginBatch (spans, staging plan, admission state), scanBatch (the data
// scan) and finishBatch (staging finalize, results, fallback, bookkeeping).
// Step runs the phases back to back; the multi-tenant shared-scan path
// (shared.go) runs begin and finish around a scan it performs itself, so the
// state that used to live in Step's closures lives here instead.
type batchRun struct {
	m    *Middleware
	b    *batch
	tr   *obs.Tracer
	bsp  *obs.Span
	ssp  *obs.Span // the scan span (openScan / closeScan)
	plan *stagePlan

	live     []*ccWork
	paths    *predicate.Trie // over the live requests' paths, index-aligned with live at scan start
	tags     *tagState       // set when the scan walks its source's rows by their tags
	rowTags  []uint32        // with tags: the source's, per row (tagState.rows, or the stage's)
	fallback []*Request
	requeued []*Request

	// Memory ceiling for this scan: CC tables under construction plus rows
	// captured by memory tees must stay within what was free at scan start
	// (plus whatever reclaim frees since). scanBudget polices it.
	budget      int64
	rowMemBytes int64
}

// Step is StepContext that cannot be cancelled.
func (m *Middleware) Step() ([]*Result, error) { return m.StepContext(context.Background()) }

// StepContext schedules and executes one batch (§4.1.1): it picks the next set
// of active nodes per the priority rules, builds all their counts tables in a
// single scan of the chosen source, performs the planned staging, and
// returns the fulfilled results. The scan is one pass over its source, the
// paper's sequential execution module (exec_scan.go). It returns (nil, nil)
// when no requests are pending. The pass, its segments and the batch's
// §4.1.1 statements check ctx once per block: a cancelled batch aborts its
// staging writers, ends its spans and returns ctx.Err(), and the middleware
// is then fit only to be closed.
func (m *Middleware) StepContext(ctx context.Context) ([]*Result, error) {
	b := m.schedule()
	if b == nil {
		return nil, nil
	}
	r, err := m.beginBatch(b)
	if err != nil {
		return nil, err
	}
	return m.runBatch(ctx, r)
}

// runBatch scans an opened batch and finishes it. A failed scan ends the
// batch span; finishBatch ends it otherwise.
func (m *Middleware) runBatch(ctx context.Context, r *batchRun) ([]*Result, error) {
	if err := m.scanBatch(ctx, r); err != nil {
		r.bsp.End()
		return nil, err
	}
	return m.finishBatch(ctx, r)
}

// beginBatch opens the batch: observability spans, the staging plan with its
// file-tee writers, the per-request working state, and the admission-time
// memory budget. On error every writer already created is aborted and the
// batch span is closed.
func (m *Middleware) beginBatch(b *batch) (*batchRun, error) {
	// Observability: spans read the meter but never charge it, so enabling
	// them cannot change any simulated result. With no tracer attached (tr ==
	// nil) none of the instrumentation below allocates or computes anything.
	tr := m.srv.Tracer()
	r := &batchRun{m: m, b: b, tr: tr}
	m.meter.Charge(sim.CtrBatches, 0, 1)
	r.bsp = tr.Start(obs.CatBatch, "batch").SetSource(r.b.kind.name()).Attr("batch", m.meter.Count(sim.CtrBatches)).
		Attr("level", batchLevel(b))
	if m.cfg.Session > 0 {
		r.bsp.Attr("session", int64(m.cfg.Session))
	}

	r.plan = m.planStaging(b)
	for i, t := range r.plan.fileTees {
		w, err := m.files.create()
		if err != nil {
			// Abort the writers already created for this batch so no
			// half-planned staging files stay open or on disk.
			m.abortTees(r.plan.fileTees[:i])
			r.bsp.End()
			return nil, err
		}
		t.writer = w
	}

	// Working state per admitted request.
	classIdx := m.schema.ClassIndex()
	r.live = make([]*ccWork, 0, len(b.reqs))
	paths := make([]predicate.Conj, 0, len(b.reqs))
	for _, req := range b.reqs {
		attrs := make([]int, 0, len(req.Attrs)+1)
		attrs = append(attrs, req.Attrs...)
		attrs = append(attrs, classIdx)
		r.live = append(r.live, &ccWork{req: req, attrs: attrs})
		paths = append(paths, req.Path)
	}
	r.paths = predicate.NewTrie(paths)
	r.fallback = append([]*Request(nil), b.fallback...)

	r.budget = m.memBudgetLeft()
	r.rowMemBytes = int64(m.schema.RowBytes()) + memRowOverhead
	return r, nil
}

// reclaim frees staged memory outside the batch's own source (never the data
// set being scanned) and returns the enlarged ceiling. It mutates middleware
// state, so it is offered to scanBudget only where no segment runs: to the
// pass's own shard and to the settled batch.
func (r *batchRun) reclaim() (int64, bool) {
	if !r.m.evictMemoryStageExcept(r.b.stage) {
		return 0, false
	}
	r.budget = r.m.memBudgetLeft()
	return r.budget, true
}

// scanBatch executes the batch's data scan: plan it, run it, settle its shard
// and re-police the result (exec_scan.go). On error
// the staging writers are aborted and the scan span closed; the caller closes
// the batch span.
func (m *Middleware) scanBatch(ctx context.Context, r *batchRun) error {
	if len(r.live) == 0 {
		return nil
	}
	r.openScan()
	src, err := r.planScan(ctx)
	if err == nil {
		err = r.runScan(ctx, src)
	}
	if err != nil {
		m.abortTees(r.plan.fileTees)
		r.ssp.End()
		return err
	}
	r.closeScan()
	return nil
}

// abortTees aborts the staging writers of file tees and takes back the tag
// vectors their rows' tags went into.
func (m *Middleware) abortTees(tees []*teePlan) {
	for _, t := range tees {
		t.writer.Abort()
		m.tags.recycle(t.writer.sf.tags)
	}
}

// openScan opens the batch's scan span over every admitted request — all are
// live at scan start. A solo scan (scanBatch) and a shared one
// (BeginSharedBatch / Finish) both open and close theirs here.
func (r *batchRun) openScan() {
	r.ssp = r.tr.Start(obs.CatScan, "scan").SetSource(r.b.kind.name())
	if r.ssp != nil {
		r.ssp.SetNodes(nodeIDs(r.b.reqs))
	}
}

// closeScan ends the scan span and labels it with what its counter deltas say
// the scan delivered: the rows from its tier, and the zone-map effectiveness —
// row groups the block kernel actually read vs. skipped via dictionary bounds.
func (r *batchRun) closeScan() {
	if r.ssp == nil {
		return
	}
	r.ssp.End()
	d := r.ssp.Deltas
	r.ssp.SetRows(d.Get(scanRowCounter(r.b.kind))).
		Attr("col_groups_scanned", d.Get(sim.CtrColGroupsScanned)).
		Attr("col_groups_skipped", d.Get(sim.CtrColGroupsSkipped))
}

// finishBatch finalizes staging, posts the scan's results, services the
// fallback requests, requeues shed requests and, when traced, records on the
// batch span what only the middleware knows (noteBatch). It always closes the
// batch span.
func (m *Middleware) finishBatch(ctx context.Context, r *batchRun) ([]*Result, error) {
	defer r.bsp.End()
	tr := r.tr

	// Finalize staging.
	for i, t := range r.plan.fileTees {
		stsp := tr.Start(obs.CatStage, "stage-file").SetNodes(t.keyNodes)
		sf, err := t.writer.Finish()
		if err != nil {
			stsp.End()
			// Finish removed its own file; abort the remaining tees' writers
			// so their files do not stay open and on disk unregistered.
			m.tags.recycle(t.writer.sf.tags)
			m.abortTees(r.plan.fileTees[i+1:])
			return nil, err
		}
		stsp.SetRows(sf.rows).SetBytes(sf.bytes).End()
		m.newStage(t.keyNodes).file = sf
	}
	var stagedMemRows int64
	for _, t := range r.plan.memTees {
		bytes := t.mem.rows * r.rowMemBytes
		stagedMemRows += t.mem.rows
		tr.Start(obs.CatStage, "stage-memory").SetNodes(t.keyNodes).
			SetRows(t.mem.rows).SetBytes(bytes).End()
		sd := m.newStage(t.keyNodes)
		sd.mem, sd.memBytes, sd.tags = t.mem.groups, bytes, t.mem.tags
		m.stagedMem += bytes
	}

	// Post results: the scan's tables, then the fallback requests', each one
	// §2.3 statement at the server (sqlCounts). Each request's estimated and
	// counted entries go on its span, the scan's or its fallback's, and a
	// fallback's span names its kind: no fit at admission (scheduleOnce) or
	// overflow during the scan (settle).
	var results []*Result
	post := func(res *Result) {
		m.open[res.Req.NodeID] = res
		m.ccHold += res.CC.Bytes()
		results = append(results, res)
		m.served(res.Req.ParentID)
	}
	for _, w := range r.live {
		r.ssp.AddCC(w.req.NodeID, len(w.req.Path), w.req.EstCC, int64(w.cc.Entries()))
		post(&Result{Req: w.req, CC: w.cc, Source: r.b.kind.name()})
	}
	for i, req := range r.fallback {
		kind := obs.FallbackOverflow // appended by settle
		if i < len(r.b.fallback) {
			kind = obs.FallbackNoFit
		}
		fsp := tr.Start(obs.CatFallback, "sql-fallback").Attr("node", int64(req.NodeID)).Attr("kind", kind)
		t, err := m.sqlCounts(ctx, req)
		if err != nil {
			fsp.End()
			return nil, err
		}
		m.meter.Charge(sim.CtrSQLFallbacks, 0, 1)
		fsp.SetSource("sql").SetRows(t.Rows()).AddCC(req.NodeID, len(req.Path), req.EstCC, int64(t.Entries())).End()
		post(&Result{Req: req, CC: t, ViaSQL: true, Source: "sql"})
	}
	// Requests shed mid-scan return to the queue for a later batch.
	m.queue = append(m.queue, r.requeued...)

	if r.bsp != nil {
		r.noteBatch(stagedMemRows)
	}
	return results, nil
}

// batchLevel is the tree level a batch services: the minimum path depth (one
// predicate conjunct per ancestor split) over its requests. Batches are
// level-pure under the level-synchronous client protocol; a mixed batch
// reports its shallowest node. Recorded as a span attribute so the profiler
// can roll batches up into the levels → batches report nesting.
func batchLevel(b *batch) int64 {
	lvl := int64(-1)
	note := func(r *Request) {
		if d := int64(len(r.Path)); lvl < 0 || d < lvl {
			lvl = d
		}
	}
	for _, r := range b.reqs {
		note(r)
	}
	for _, r := range b.fallback {
		note(r)
	}
	if lvl < 0 {
		lvl = 0
	}
	return lvl
}

// scanRowCounter maps a source tier to the counter that measures rows the
// scan delivered to the middleware from that tier.
func scanRowCounter(k sourceKind) sim.Counter {
	switch k {
	case srcMemory:
		return sim.CtrMemRowsRead
	case srcFile:
		return sim.CtrFileRowsRead
	}
	return sim.CtrRowsTransmitted
}

// noteBatch records, as attributes of the batch span, the facts of a finished
// batch no other span carries: requests shed back to the queue, rows staged in
// memory, where the memory budget and the staging files stand, and the open
// nodes resident per tier. Everything else about the batch is on its child
// spans (scan, stage, fallback) and in Span.Deltas. Only called with a tracer
// attached.
func (r *batchRun) noteBatch(stagedMemRows int64) {
	m := r.m
	srvN, fileN, memN := m.residency()
	r.bsp.Attr("n_requeued", int64(len(r.requeued))).
		Attr("staged_mem_rows", stagedMemRows).
		Attr("mem_used_bytes", m.MemoryInUse()).
		Attr("mem_budget_bytes", m.cfg.Memory).
		Attr("file_used_bytes", m.files.bytesInUse).
		Attr("files_live", int64(m.files.live)).
		Attr("nodes_server", int64(srvN)).
		Attr("nodes_file", int64(fileN)).
		Attr("nodes_memory", int64(memN))
}

// residency counts, for the staging-tier residency timeline, the open nodes
// covered by a live memory stage, those covered by a live file stage, and the
// queued nodes with no staged ancestor (still served from the server).
func (m *Middleware) residency() (server, file, mem int) {
	seen := map[*stageData]bool{}
	//repolint:ordered commutative tier counting over a deduplicated set
	for _, list := range m.sources {
		for _, sd := range list {
			if sd.freed || seen[sd] {
				continue
			}
			seen[sd] = true
			switch {
			case sd.mem != nil:
				mem += len(sd.openNodes)
			case sd.file != nil:
				file += len(sd.openNodes)
			}
		}
	}
	for _, r := range m.queue {
		if len(m.ancestorSources(r.NodeID)) == 0 {
			server++
		}
	}
	return server, file, mem
}

// sqlCounts services one request with the straightforward SQL implementation
// of §2.3: a UNION of GROUP BY queries executed at the server, one arm per
// remaining attribute plus one arm for the class histogram, on the middleware's
// own meter and tracer (a session's, in a fleet). This is both the runtime fallback when a counts
// table cannot fit in middleware memory (§4.1.1) and, via the baseline package,
// the strawman of Figure 7.
func (m *Middleware) sqlCounts(ctx context.Context, r *Request) (*cc.Table, error) {
	rs, err := m.srv.Exec(ctx, CountsSQL(m.schema, m.srv.TableName(), r.Path, r.Attrs))
	if err != nil {
		return nil, err
	}
	return CountsFromResult(m.schema, rs)
}

// CountsSQL renders the §2.3 counts query for one node: one GROUP BY arm per
// attribute in attrs plus an arm counting the class column itself, each arm
// selecting the attribute's column index as attr so the result parses back
// into a cc.Table without name lookups.
func CountsSQL(s *data.Schema, table string, path predicate.Conj, attrs []int) string {
	where := path.SQL(s)
	className := s.Class.Name
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		name := s.Attrs[a].Name
		fmt.Fprintf(&b, "SELECT %d AS attr, %s AS val, %s AS cls, COUNT(*) AS n FROM %s WHERE %s GROUP BY %s, %s",
			a, name, className, table, where, className, name)
	}
	if len(attrs) > 0 {
		b.WriteString(" UNION ALL ")
	}
	fmt.Fprintf(&b, "SELECT %d AS attr, %s AS val, %s AS cls, COUNT(*) AS n FROM %s WHERE %s GROUP BY %s",
		s.ClassIndex(), className, className, table, where, className)
	return b.String()
}

// CountsFromResult parses the result of a CountsSQL query into a cc.Table.
func CountsFromResult(s *data.Schema, rs *engine.ResultSet) (*cc.Table, error) {
	if len(rs.Cols) != 4 {
		return nil, fmt.Errorf("mw: counts query returned %d columns, want 4", len(rs.Cols))
	}
	t := cc.New()
	classIdx := s.ClassIndex()
	var rows int64
	for _, r := range rs.Rows {
		if r[0].Str || r[1].Str || r[2].Str || r[3].Str {
			return nil, fmt.Errorf("mw: counts query returned non-integer values")
		}
		attr := int(r[0].I)
		t.Add(attr, data.Value(r[1].I), data.Value(r[2].I), r[3].I)
		if attr == classIdx {
			rows += r[3].I
		}
	}
	t.SetRows(rows)
	return t, nil
}
