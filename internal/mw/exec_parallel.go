package mw

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/cc"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the lane pipeline every batched scan runs through: plan the
// lanes (planLanes), run each over its partition of the source (runLanes),
// merge the worker shards and re-police the merged result (mergeShards). With
// Config.Workers > 1 the lanes are real goroutines over disjoint partitions;
// otherwise — or when the source cannot be split — the batch is one lane over
// the whole source, the paper's sequential execution module. Independently of
// the modeled lane count, a lane of a batch that stages nothing and whose
// budget cannot police runs as segments: goroutines over contiguous parts of
// its range whose meters fold back serially, so the host's cores are used
// while the model still charges one lane. The design constraint is
// determinism: results, staging contents and the virtual clock must be
// bit-for-bit reproducible regardless of GOMAXPROCS or goroutine
// interleaving, so
//
//   - every lane and segment touches only its own state (CC shard tables,
//     staging runs, its meter, its lane scratch) — there is no shared mutable
//     state and therefore nothing scheduling-dependent. Two exceptions, both
//     single-writer: lane 0, first in file order, writes the row groups its
//     file tees fill straight into the staging files, and a lone lane, which
//     runs on the caller's goroutine (obs.RunLanes), may reclaim staged memory
//     mid-scan;
//   - partitions are contiguous row-group ranges (of the columnar copy, of the
//     rows a keyset or TID table holds of it, of a staged file or of staged
//     memory), so concatenating the lanes' staging runs in partition order
//     reproduces the sequential scan's rows in its order;
//   - the parent clock advances by max(lane elapsed) at the barrier
//     (sim.Meter.Join) plus a serial per-entry shard-merge charge, modeling
//     the paper's multi-CPU middleware host; a lane's clock advances by the
//     sum of its segments' elapsed (sim.Meter.JoinSerial), and merging
//     segments is not charged: to the model they are one worker.

// scanBudget is the one overflow policy for a runtime estimation error
// (§4.1.1): the CC tables under construction plus the rows captured by memory
// tees no longer fit their ceiling. It polices a lane's shard against the
// lane's slice of the scan budget mid-scan, and the merged batch against the
// whole budget afterwards (the slices are only a mid-scan approximation).
// State is shed in a fixed order — staging is an optimization, so it is
// sacrificed before any request: first the memory tee holding the most rows,
// then (where reclaim is offered) staged memory outside the batch's own
// source, and only then the request with the largest table.
type scanBudget struct {
	limit       int64
	rowMemBytes int64
	ccBytes     int64
	teeBytes    int64
	ccs         []*cc.Table     // index-aligned with the batch's live requests; nil once shed
	mems        []teeRun        // per memTee: what it captured, scan order
	memDrop     []bool          // memTees abandoned (a partial capture is useless as staged data)
	shed        []int           // requests shed by police, in order
	dropped     []*cc.Table     // the tables of the shed requests, for recycling
	spares      *storage.Spares // takes back the code vectors of written file groups and dropped memory tees
	// reclaim frees staged memory elsewhere in the middleware and returns the
	// enlarged limit; nil where that would race with other lanes.
	reclaim func() (int64, bool)
}

// teeRun is what a scan has captured for one staging tee: the row groups its
// builder filled, in scan order, and the rows still in the builder's open
// group. rows counts both.
type teeRun struct {
	b      *storage.GroupBuilder
	groups []*storage.ColGroup
	rows   int64
}

// take notes n more captured rows, and the group they filled if they did.
func (t *teeRun) take(n int, full *storage.ColGroup) {
	t.rows += int64(n)
	if full != nil {
		t.groups = append(t.groups, full)
	}
}

func (p *scanBudget) dropLargestTee() bool {
	li := -1
	for j := range p.mems {
		if p.memDrop[j] {
			continue
		}
		if li < 0 || p.mems[j].rows > p.mems[li].rows {
			li = j
		}
	}
	if li < 0 {
		return false
	}
	p.teeBytes -= p.mems[li].rows * p.rowMemBytes
	p.memDrop[li] = true
	for _, g := range p.mems[li].groups {
		p.spares.Recycle(g)
	}
	p.mems[li] = teeRun{}
	return true
}

func (p *scanBudget) shedLargest() bool {
	li := -1
	for i, t := range p.ccs {
		if t == nil {
			continue
		}
		if li < 0 || t.Bytes() > p.ccs[li].Bytes() {
			li = i
		}
	}
	if li < 0 {
		return false
	}
	p.ccBytes -= p.ccs[li].Bytes()
	p.dropped = append(p.dropped, p.ccs[li])
	p.ccs[li] = nil
	p.shed = append(p.shed, li)
	return true
}

// police sheds state until what remains fits the limit again.
func (p *scanBudget) police() {
	for p.ccBytes+p.teeBytes > p.limit {
		if p.dropLargestTee() {
			continue
		}
		if p.reclaim != nil {
			if limit, ok := p.reclaim(); ok {
				p.limit = limit
				continue
			}
		}
		if !p.shedLargest() {
			break
		}
	}
}

// workerShard is the worker-local state of one scan lane: the policed CC
// shard tables and memory-tee runs, and the lane's file-tee output. A
// worker writes nothing outside its shard and its lane meter — lane 0's
// write-through excepted — so the scan is race-free and every lane's final
// state is a pure function of its partition.
type workerShard struct {
	scanBudget
	// files holds, per fileTee, the lane's builder and the groups it filled —
	// except on lane 0 (first), whose rows come first in file order: it writes
	// each group into the staging file as it fills. Holding them — as the
	// later lanes must, until lane 0 is done — would keep a copy of everything
	// staged in RAM, outside the budget.
	files []teeRun
	first bool
	err   error
	// lo and hi bound the lane's row groups; scratch is the index of the lane
	// scratch it scans with. A lane run as segments holds one shard per
	// segment in segs, its own first; the others count unpoliced.
	lo, hi  int
	scratch int
	segs    []*workerShard
}

// newShard readies the state of lane part of nlanes: its slice of the scan
// budget over empty CC tables and tee runs for the batch, all recycled where
// the middleware has them. A new table reserves its vectors when its first
// row arrives, from the schema's cardinalities — a lane that never sees a
// node's rows pays nothing for it.
func (r *batchRun) newShard(part, nlanes int) *workerShard {
	m, nmem, nfile := r.m, len(r.plan.memTees), len(r.plan.fileTees)
	spares := &m.spares[part]
	m.lane(part) // made here: lanes only look their scratch up
	sh := &workerShard{scanBudget: scanBudget{
		// planLanes guarantees a split scan's slice is >= 1, so a lane only
		// sheds once it has actually accumulated state.
		limit:       r.budget / int64(nlanes),
		rowMemBytes: r.rowMemBytes,
		ccs:         make([]*cc.Table, len(r.live)),
		mems:        make([]teeRun, nmem),
		memDrop:     make([]bool, nmem),
		spares:      spares,
	}, files: make([]teeRun, nfile), first: part == 0, scratch: part}
	for i, wk := range r.live {
		sh.ccs[i] = m.newTable(wk.attrs)
	}
	// A stage's row groups are one kernel block each — the unit later scans of
	// it skip by zone map and split into lanes. A tee's expected rows are its
	// nodes' exact sizes: one lane captures them all, the lanes of a split about
	// a share each.
	for j, t := range r.plan.memTees {
		sh.mems[j].b = m.teeBuilder(int(t.rows)/nlanes, spares)
	}
	for k, t := range r.plan.fileTees {
		sh.files[k].b = m.teeBuilder(int(t.rows)/nlanes, spares)
	}
	if nlanes == 1 {
		sh.reclaim = r.reclaim
	}
	return sh
}

// stageFile notes n more rows captured for file tee k (t) and the group they
// filled, if any; the lane charges the writes.
func (sh *workerShard) stageFile(k int, t *teePlan, n int, full *storage.ColGroup) {
	if sh.first {
		sh.writeFile(t, full)
		full = nil
	}
	sh.files[k].take(n, full)
}

// writeFile appends g (nil: none) to file tee t's staging file; the file holds
// its codes now, so its code vectors go back to the lane's spares.
func (sh *workerShard) writeFile(t *teePlan, g *storage.ColGroup) {
	if g != nil {
		t.writer.writeGroup(g)
		sh.spares.Recycle(g)
	}
}

// stageMem notes n more rows captured for memory tee j and the group they
// filled, if any.
func (sh *workerShard) stageMem(j, n int, full *storage.ColGroup) {
	sh.mems[j].take(n, full)
	sh.teeBytes += int64(n) * sh.rowMemBytes
}

// scanPlan describes how a batch's scan splits into lanes: the lane count and
// the one source they read — row groups of the columnar copy of the base table
// or a copy-table, of the rows a keyset or TID table holds of it, of a staged
// file or of staged memory.
//
// bounds, when non-nil, holds nworkers+1 group-weighted split points: lane w
// covers row groups [bounds[w], bounds[w+1]), giving each lane approximately
// equal estimated work instead of equal group counts. A nil bounds means the
// equal-width formula (hints disabled, or nothing to weigh).
type scanPlan struct {
	nworkers int
	// filter is the predicate pushed down to the source and, by
	// construction, the one the weighted bounds were estimated for: the
	// batch filter, or match-all under the no-pushdown ablation (where every
	// row is transmitted and weights are uniform anyway).
	filter predicate.Filter
	groups engine.GroupSource
	bounds []int
}

// scanFilter returns the filter the batch's scan pushes down to its source
// (see scanPlan.filter): the disjunction of the live paths, evaluated through
// their one trie.
func (r *batchRun) scanFilter() predicate.Filter {
	if r.m.cfg.NoFilterPushdown {
		return predicate.MatchAll()
	}
	return r.paths.Filter()
}

// planLanes decides which source the batch's lanes read — for a server batch
// the base table's columnar copy or the §4.3.3 auxiliary structure covering it,
// built here once the batch is small enough (maybeBuildAux) — how many lanes
// run, and the group-weighted split boundaries (scanPlan.bounds) that give
// each lane approximately equal estimated work. The batch's staging tees enter
// the weighting with their write costs. The batch runs one lane whenever it
// cannot or should not be partitioned: Workers <= 1, a source with fewer than
// two row groups (including none at all), or a scan-start budget so tight that
// the per-lane slice would truncate to zero — with a zero slice every lane
// would shed every request on its first counted row even though one lane,
// policing the whole budget, can succeed.
func (r *batchRun) planLanes() (scanPlan, error) {
	m, b := r.m, r.b
	sp := scanPlan{filter: r.scanFilter()}
	switch b.kind {
	case srcMemory:
		sp.groups = memGroups{stageCharge{sim.CtrMemRowsRead, m.meter.Costs().MemRowRead}, b.stage.mem}
	case srcFile:
		sp.groups = m.files.source(b.stage.file, nil) // to plan by: nothing is read through it
	case srcServer:
		aux, err := m.maybeBuildAux(b)
		switch {
		case err != nil:
			return sp, err
		case aux == nil:
			sp.groups = m.srv.ColGroups(m.columnarNeedCols(r.plan, r.live))
			r.tagRows()
		case aux.rows != nil:
			sp.groups = aux.rows
			r.tagRows()
		default:
			sp.groups = aux.subSrv.ColGroups(m.columnarNeedCols(r.plan, r.live))
		}
	}
	sp.nworkers = min(m.cfg.Workers, sp.groups.NumGroups())
	if sp.nworkers < 2 || r.budget/int64(sp.nworkers) == 0 {
		sp.nworkers = 1
		return sp, nil
	}
	sp.bounds = m.splitBounds(r.plan, sp)
	return sp, nil
}

// splitBounds computes the split of the chosen source by the one group-weight
// rule (engine.GroupBounds), or nil for the equal-width default: groups the
// zone maps skip, or of which a row set holds nothing, weigh nothing; a matching
// row pays its transmission at the source's price (nothing from a stage), the
// block kernel's histogram bump and the file-write cost per staging tee it may
// feed. This weights the split boundaries only — no charge is ever derived from
// it. The bounds are a pure function of row-group statistics and the batch
// filter, charged to no meter, so the split is deterministic and free.
func (m *Middleware) splitBounds(plan *stagePlan, sp scanPlan) []int {
	return m.weighSplit(&m.lane(0).split, plan, sp.groups, sp.filter, 0, sp.groups.NumGroups(), sp.nworkers)
}

// weighSplit splits row groups [lo, hi) of src into nparts by the group-weight
// rule on b's scratch: split points relative to lo, valid until b's next
// split, or nil for equal-width.
func (m *Middleware) weighSplit(b *engine.Bounder, plan *stagePlan, src engine.GroupSource, f predicate.Filter, lo, hi, nparts int) []int {
	if m.cfg.NoHistogramHints {
		return nil
	}
	costs := m.meter.Costs()
	prices, _ := src.AtServer()
	perMatch := prices.Transmit + costs.CCBump + int64(len(plan.fileTees))*costs.FileRowWrite
	return b.Split(src, lo, hi, f, nparts, costs, perMatch)
}

// segmentRuns counts the lanes run as more than one segment, for tests.
var segmentRuns atomic.Int64

// For tests: tagsOff walks every scan from the root, taggedScans counts the
// batches whose scan walked rows by their tags, and pairRows the rows those
// scans bucketed by a pair select.
var (
	tagsOff     bool
	taggedScans atomic.Int64
	pairRows    atomic.Int64
)

// tagRows readies the batch's scan of the server table's rows — the whole
// copy, or a keyset or TID table over it — to walk each row from its tag: it
// registers the live requests' tags and computes every tag's class under the
// live paths, serially, before any lane forks. A batch whose trie is the root
// alone has nothing to walk, and runs untagged.
func (r *batchRun) tagRows() {
	if tagsOff || len(r.paths.Nodes()) == 1 {
		return
	}
	ts := r.m.tagState()
	ts.conjs = ts.conjs[:0]
	for _, w := range r.live {
		ts.conjs = append(ts.conjs, ts.tagOf(w.req))
	}
	ts.classes.Reset(r.paths, ts.paths, ts.conjs)
	r.tags = ts
	taggedScans.Add(1)
}

// runLanes executes the batch's scan over sp.nworkers lanes and folds the
// result into the run. Each lane polices its 1/nworkers slice of the budget
// captured at scan start; mergeShards re-checks the merged totals against
// the whole of it. A lane whose batch is segmentable runs as
// k = min(GOMAXPROCS / lanes, groups / 4) segments — at least 8 groups for two —
// each with a shard and a scratch of its own.
func (r *batchRun) runLanes(sp scanPlan) error {
	m, n := r.m, sp.nworkers
	shards := make([]*workerShard, n)
	segmentable := r.segmentable(n)
	if n == 1 && segmentable {
		r.planDerived()
	}
	perLane := runtime.GOMAXPROCS(0) / n
	if perLane < 2 || !segmentable {
		perLane = 0
	}
	next := n // the first lane-scratch index no lane uses
	for part := range shards {
		sh := r.newShard(part, n)
		sh.lo, sh.hi = engine.RangeOf(part, n, sp.groups.NumGroups(), sp.bounds)
		if k := min(perLane, (sh.hi-sh.lo)/4); k > 1 {
			sh.segs = append(make([]*workerShard, 0, k), sh)
			for ; len(sh.segs) < k; next++ {
				sh.segs = append(sh.segs, r.newSegment(next))
			}
			segmentRuns.Add(1)
		}
		shards[part] = sh
	}
	rowCtr := scanRowCounter(r.b.kind)
	obs.RunLanes(m.meter, r.tr, n, func(part int, lane *sim.Meter, ltr *obs.Tracer) {
		sh := shards[part]
		lsp := ltr.Start(obs.CatLane, "lane").SetPartition(part, n)
		// A lone lane is the middleware's own meter: measure from here.
		rows := lane.Count(rowCtr)
		sh.err = r.scanLane(sp, lane, sh)
		lsp.SetRows(lane.Count(rowCtr) - rows).End()
	})
	for _, sh := range shards {
		for _, seg := range sh.segs {
			if seg != sh {
				m.recycleTables(seg.ccs...)
			}
		}
	}
	for _, sh := range shards {
		if sh.err != nil {
			return sh.err
		}
	}
	r.mergeShards(shards)
	return nil
}

// segmentable reports whether the batch's lanes may run as segments, whose
// split no meter, trace or result may show. It holds when the scan stages
// nothing — a tee's groups would be cut where segments meet, and later scans
// of the stage would see other groups — and its budget cannot police: every
// live table at its worst, each attribute's values and Missing times the
// classes and Missing at cc.EntryBytes a cell, fits a lane's slice, so no
// shed or reclaim can depend on which rows a goroutine counted first.
func (r *batchRun) segmentable(nlanes int) bool {
	if len(r.plan.fileTees) > 0 || len(r.plan.memTees) > 0 {
		return false
	}
	m := r.m
	classes := int64(m.schema.Class.Card + 1)
	var worst int64
	for _, w := range r.live {
		for _, a := range w.attrs {
			worst += int64(m.cards[a]+1) * classes * cc.EntryBytes
		}
	}
	return worst <= r.budget/int64(nlanes)
}

// newSegment readies the shard of a segment after a lane's first, scanning
// with lane scratch index scratch: empty tables for the live requests, no tee
// and no police limit (segmentable proved none needed).
func (r *batchRun) newSegment(scratch int) *workerShard {
	r.m.lane(scratch) // made here: segments only look their scratch up
	seg := &workerShard{scanBudget: scanBudget{limit: math.MaxInt64, ccs: make([]*cc.Table, len(r.live))}, scratch: scratch}
	for i, wk := range r.live {
		seg.ccs[i] = r.m.newTable(wk.attrs)
	}
	return seg
}

// mergeShards folds the worker shards of a finished scan back into the run,
// in fixed partition order, and re-polices the merged state against the real
// remaining budget. With one shard the loops collapse to plain moves and
// nothing is charged.
func (r *batchRun) mergeShards(shards []*workerShard) {
	m, live, plan := r.m, r.live, r.plan
	merged := &scanBudget{
		limit:       r.budget,
		rowMemBytes: r.rowMemBytes,
		ccs:         make([]*cc.Table, len(live)),
		mems:        make([]teeRun, len(plan.memTees)),
		memDrop:     make([]bool, len(plan.memTees)),
		spares:      &m.spares[0],
		reclaim:     r.reclaim,
	}

	// Merge CC shards in partition order, charging the serial per-entry
	// merge cost on the parent meter. Counting is commutative over disjoint
	// partitions, so the merged tables are identical to a sequential scan's.
	// A request shed by any worker lacks that partition's rows and cannot be
	// completed this scan. A single shard has nothing to fold: no merge
	// span, no charge. Every table not kept — folded, or of a shed request —
	// goes back to the middleware.
	var msp *obs.Span
	if len(shards) > 1 {
		msp = r.tr.Start(obs.CatMerge, "shard-merge")
	}
	var mergedEntries int64
	var shedMidScan []*Request
	mergeCost := m.meter.Costs().MergeEntry
requests:
	for i, wk := range live {
		for _, sh := range shards {
			if sh.ccs[i] == nil {
				shedMidScan = append(shedMidScan, wk.req)
				for _, sh := range shards {
					m.recycleTables(sh.ccs[i])
				}
				continue requests
			}
		}
		t := shards[0].ccs[i]
		for _, sh := range shards[1:] {
			part := sh.ccs[i]
			m.meter.Charge(sim.CtrShardMergeEntries, mergeCost, int64(part.Entries()))
			mergedEntries += int64(part.Entries())
			t.Merge(part)
			m.recycleTables(part)
		}
		merged.ccs[i] = t
	}
	msp.Attr("entries", mergedEntries).End()
	r.fillDerived(merged.ccs)
	for _, t := range merged.ccs {
		if t != nil {
			merged.ccBytes += t.Bytes()
		}
	}
	for _, sh := range shards {
		m.recycleTables(sh.dropped...)
	}

	// Memory tees: a tee abandoned by any worker is dropped entirely;
	// survivors concatenate the lanes' runs in partition order — each lane's
	// filled groups, then what its builder still holds — which reproduces the
	// sequential scan's rows in its order. Sealed builders go back to the
	// middleware (a dropped tee's are let go).
	for j := range plan.memTees {
		for _, sh := range shards {
			merged.memDrop[j] = merged.memDrop[j] || sh.memDrop[j]
		}
		if merged.memDrop[j] {
			continue
		}
		run := teeRun{groups: []*storage.ColGroup{}}
		for _, sh := range shards {
			run.groups = append(run.groups, sh.mems[j].groups...)
			run.take(int(sh.mems[j].rows), sh.mems[j].b.Seal())
			m.builders = append(m.builders, sh.mems[j].b)
		}
		merged.mems[j] = run
		merged.teeBytes += run.rows * r.rowMemBytes
	}

	// File tees: lane 0 wrote the groups it filled into the staging files
	// during the scan; append what its builder still holds, then the later
	// lanes' runs in partition order. The per-row write costs were charged in
	// the lanes; this is the physical append only.
	for k, t := range plan.fileTees {
		for _, sh := range shards {
			for _, g := range sh.files[k].groups {
				sh.writeFile(t, g)
			}
			sh.writeFile(t, sh.files[k].b.Seal())
			m.builders = append(m.builders, sh.files[k].b)
		}
	}

	// Settle the shed requests, mirroring the paper's eviction semantics: a
	// shed request re-queues for a later (smaller) batch while other
	// requests survive, and falls back to server-side SQL only when nothing
	// is left to shed beside it.
	survivors := len(live) - len(shedMidScan)
	if survivors > 0 {
		r.requeued = append(r.requeued, shedMidScan...)
	} else {
		r.fallback = append(r.fallback, shedMidScan...)
	}
	merged.police()
	m.recycleTables(merged.dropped...)
	for _, i := range merged.shed {
		if survivors--; survivors > 0 {
			r.requeued = append(r.requeued, live[i].req)
		} else {
			r.fallback = append(r.fallback, live[i].req)
		}
	}
	r.live = live[:0]
	for i, wk := range live {
		if t := merged.ccs[i]; t != nil {
			wk.cc = t
			r.live = append(r.live, wk)
		}
	}
	kept := plan.memTees[:0]
	for j, t := range plan.memTees {
		if !merged.memDrop[j] {
			t.mem = merged.mems[j]
			kept = append(kept, t)
		}
	}
	plan.memTees = kept
}

// scanLane is the body of one scan lane: it drives the lane's row groups
// through the counting kernel (colConsumer), charging every operation to lane
// and keeping all state in sh. The cursor opens once, on the lane. A lane run
// as segments splits its groups by the group-weight rule; each segment counts
// its part on a forked meter, the meters fold back serially
// (obs.RunSegments), and the segments' tables merge into the lane's in segment
// order, uncharged — counting is commutative, so the lane ends exactly as one
// goroutine would have left it.
func (r *batchRun) scanLane(sp scanPlan, lane *sim.Meter, sh *workerShard) error {
	engine.OpenCursor(sp.groups, lane)
	if sh.segs == nil {
		return r.scanRange(sp.groups, sh.lo, sh.hi, lane, sh)
	}
	k := len(sh.segs)
	bounds := r.m.weighSplit(&r.m.lanes[sh.scratch].split, r.plan, sp.groups, sp.filter, sh.lo, sh.hi, k)
	obs.RunSegments(lane, k, func(j int, seg *sim.Meter) {
		lo, hi := engine.RangeOf(j, k, sh.hi-sh.lo, bounds)
		ss := sh.segs[j]
		ss.err = r.scanRange(sp.groups, sh.lo+lo, sh.lo+hi, seg, ss)
	})
	for _, ss := range sh.segs {
		if ss.err != nil {
			return ss.err
		}
	}
	for _, ss := range sh.segs[1:] {
		for i, t := range ss.ccs {
			sh.ccs[i].Merge(t)
		}
	}
	return nil
}

// scanRange counts row groups [lo, hi) of src into sh with the kernel of sh's
// lane scratch, charging m; a staging file is read through the scratch's own
// open file and buffer.
func (r *batchRun) scanRange(src engine.GroupSource, lo, hi int, m *sim.Meter, sh *workerShard) error {
	if r.b.kind == srcFile {
		fsrc := r.m.files.source(r.b.stage.file, &r.m.lanes[sh.scratch].buf)
		defer fsrc.close()
		src = fsrc
	}
	cons := r.colConsumer(sh.scratch, m, sh)
	err := engine.ScanRange(src, []*engine.ScanConsumer{cons}, lo, hi, m)
	pairRows.Add(cons.PairRows())
	return err
}
