package mw

import (
	"context"
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

// This file is the scan every batch runs: plan its source (planScan), run
// one pass over it (runScan), and settle what the pass counted and staged
// into the batch (settle). The pass is the paper's sequential execution
// module, charged to the middleware's meter. A pass whose batch stages
// nothing and whose budget cannot police runs as segments: goroutines over
// contiguous parts of its range whose meters fold back serially
// (obs.RunSegments), so the host's cores are used while the model still
// charges one pass. The design constraint is determinism: results, staging
// contents and the virtual clock must be bit-for-bit reproducible regardless
// of GOMAXPROCS or goroutine interleaving, so
//
//   - every segment touches only its own state (its CC tables, its meter,
//     its scratch) — there is no shared mutable state and therefore nothing
//     scheduling-dependent;
//   - segments are contiguous row-group ranges of the source, and counting
//     is commutative, so their tables merged in segment order are the
//     one-goroutine pass's tables;
//   - the pass's clock advances by the sum of its segments' elapsed
//     (sim.Meter.JoinSerial), and merging segments is not charged: to the
//     model they are one pass.

// scanBudget is the one overflow policy for a runtime estimation error
// (§4.1.1): the CC tables under construction plus the rows captured by memory
// tees no longer fit their ceiling. It polices the pass's shard against the
// scan budget mid-scan, and the settled batch, derived tables included,
// against it afterwards.
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
	tags        *tagState       // takes back the tag vectors of dropped memory tees
	// reclaim frees staged memory elsewhere in the middleware and returns the
	// enlarged limit; nil on a segment, which never polices.
	reclaim func() (int64, bool)
}

// teeRun is what a scan has captured for one staging tee: the row groups its
// builder filled, in scan order, and the rows still in the builder's open
// group. rows counts both; tags holds each of them's tag, in the same order.
type teeRun struct {
	b      *storage.GroupBuilder
	groups []*storage.ColGroup
	rows   int64
	tags   []uint32
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
	p.tags.recycle(p.mems[li].tags)
	p.mems[li] = teeRun{}
	teesDropped.Add(1)
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

// scanShard is the state one pass or segment counts into: the policed CC
// tables and memory-tee runs, and the builders of the file tees, whose filled
// groups go straight into the staging files. A segment writes nothing outside
// its shard and its meter, so a segmented pass is race-free.
type scanShard struct {
	scanBudget
	files []*storage.GroupBuilder // per fileTee
	err   error
	// segs holds, for a pass run as segments, one shard per segment, the
	// pass's own first; the others count unpoliced. Segment j scans with
	// scratch j.
	segs []*scanShard
}

// newShard readies the pass's shard: the whole scan budget over empty CC
// tables and tee runs for the batch, all recycled where the middleware has
// them. A new table reserves its vectors when its first row arrives, from the
// schema's cardinalities — a pass that never sees a node's rows pays nothing
// for it. A stage's row groups are one kernel block each — the unit later
// scans of it skip by zone map and split into segments — and a tee's expected
// rows are its nodes' exact sizes, which size its tag vector too.
func (r *batchRun) newShard() *scanShard {
	m, nmem := r.m, len(r.plan.memTees)
	sh := &scanShard{scanBudget: scanBudget{
		limit:       r.budget,
		rowMemBytes: r.rowMemBytes,
		ccs:         make([]*cc.Table, len(r.live)),
		mems:        make([]teeRun, nmem),
		memDrop:     make([]bool, nmem),
		spares:      &m.spares,
		reclaim:     r.reclaim,
	}, files: make([]*storage.GroupBuilder, len(r.plan.fileTees))}
	for i, wk := range r.live {
		sh.ccs[i] = m.newTable(wk.attrs)
	}
	if nmem+len(r.plan.fileTees) > 0 {
		sh.tags = m.tagState()
	}
	for j, t := range r.plan.memTees {
		sh.mems[j].b = m.teeBuilder(int(t.rows), &m.spares)
		sh.mems[j].tags = sh.tags.take(int(t.rows))
	}
	for k, t := range r.plan.fileTees {
		sh.files[k] = m.teeBuilder(int(t.rows), &m.spares)
		t.writer.sf.tags = sh.tags.take(int(t.rows))
	}
	return sh
}

// writeFile appends g (nil: none) to file tee t's staging file; the file holds
// its codes now, so its code vectors go back to the spares.
func (sh *scanShard) writeFile(t *teePlan, g *storage.ColGroup) {
	if g != nil {
		t.writer.writeGroup(g)
		sh.spares.Recycle(g)
	}
}

// stageMem notes n more rows captured for memory tee j and the group they
// filled, if any.
func (sh *scanShard) stageMem(j, n int, full *storage.ColGroup) {
	sh.mems[j].take(n, full)
	sh.teeBytes += int64(n) * sh.rowMemBytes
}

// appendTags appends to dst the tag of each row of sel (group-relative) in
// tags, the block's tags as its walk left them; a block walked untagged has
// none (nil), and its rows are at the root, tag 0.
func appendTags(dst, tags []uint32, sel []int32) []uint32 {
	if tags == nil {
		return append(dst, make([]uint32, len(sel))...)
	}
	for _, i := range sel {
		dst = append(dst, tags[i])
	}
	return dst
}

// scanFilter returns the filter the batch's scan pushes down to its source:
// the disjunction of the live paths, evaluated through their one trie, or
// match-all under the no-pushdown ablation, where the scan still selects by
// the paths but no group is skipped and every row is transmitted.
func (r *batchRun) scanFilter() predicate.Filter {
	if r.m.cfg.NoFilterPushdown {
		return predicate.MatchAll()
	}
	return r.paths.Filter()
}

// planScan decides which row groups the batch's pass reads: a staged file or
// staged memory, or for a server batch the base table's columnar copy or the
// §4.3.3 auxiliary structure covering it — the rows a keyset or TID table
// holds of it, or a copy-table — built here once the batch is small enough
// (maybeBuildAux).
func (r *batchRun) planScan(ctx context.Context) (engine.GroupSource, error) {
	m, b := r.m, r.b
	var src engine.GroupSource
	switch b.kind {
	case srcMemory:
		src = memGroups{stageCharge{sim.CtrMemRowsRead, m.meter.Costs().MemRowRead}, b.stage.mem}
		r.tagRows()
	case srcFile:
		src = m.files.source(b.stage.file, nil) // to plan by: nothing is read through it
		r.tagRows()
	case srcServer:
		aux, err := m.maybeBuildAux(ctx, b)
		switch {
		case err != nil:
			return nil, err
		case aux == nil:
			src = m.srv.ColGroups(m.columnarNeedCols(r.plan, r.live))
			r.tagRows()
		case aux.rows != nil:
			src = aux.rows
			r.tagRows()
		default:
			src = aux.subSrv.ColGroups(m.columnarNeedCols(r.plan, r.live))
		}
	}
	return src, nil
}

// segmentRuns counts the passes run as more than one segment, for tests.
var segmentRuns atomic.Int64

// For tests: tagsOff walks every scan from the root, taggedScans counts (by
// the source the batch read) the batches whose scan walked rows by their
// tags, pairRows the rows those scans bucketed by a pair select, teesDropped
// the memory tees a budget dropped, and foldCalls the histograms the kernel
// folded into a table.
var (
	tagsOff     bool
	taggedScans [srcServer + 1]atomic.Int64
	pairRows    atomic.Int64
	teesDropped atomic.Int64
	foldCalls   atomic.Int64
)

// tagRows readies the batch's scan — of the server table's rows (the whole
// copy, or a keyset or TID table over it) or of a stage in a file or in
// memory — to walk each row from its tag: it picks the source's tags,
// registers the live requests' tags and computes every tag's class under the
// live paths, serially, before any segment forks. A batch whose trie is the root
// alone has nothing to walk, and runs untagged.
func (r *batchRun) tagRows() {
	if tagsOff || len(r.paths.Nodes()) == 1 {
		return
	}
	ts := r.m.tagState()
	switch r.b.kind {
	case srcMemory:
		r.rowTags = r.b.stage.tags
	case srcFile:
		r.rowTags = r.b.stage.file.tags
	default:
		r.rowTags = ts.tableRows(int(r.m.srv.NumRows()))
	}
	ts.conjs = ts.conjs[:0]
	for _, w := range r.live {
		ts.conjs = append(ts.conjs, ts.tagOf(w.req))
	}
	ts.classes.Reset(r.paths, ts.paths, ts.conjs)
	r.tags = ts
	taggedScans[r.b.kind].Add(1)
}

// runScan executes the batch's pass and settles it into the run. The pass
// polices the budget captured at scan start; settle re-checks it. A
// segmentable pass runs as k = min(GOMAXPROCS, groups / 4) segments — at
// least 8 groups for two — each with a shard and a scratch of its own.
func (r *batchRun) runScan(ctx context.Context, src engine.GroupSource) error {
	m := r.m
	segmentable := r.segmentable()
	if segmentable {
		r.planDerived()
	}
	sh := r.newShard()
	if k := min(runtime.GOMAXPROCS(0), src.NumGroups()/4); segmentable && k > 1 {
		sh.segs = append(make([]*scanShard, 0, k), sh)
		for len(sh.segs) < k {
			sh.segs = append(sh.segs, r.newSegment(len(sh.segs)))
		}
		segmentRuns.Add(1)
	}
	err := r.scanSource(ctx, src, sh)
	for _, seg := range sh.segs {
		if seg != sh {
			m.recycleTables(seg.ccs...)
		}
	}
	if err != nil {
		return err
	}
	r.settle(sh)
	return nil
}

// segmentable reports whether the batch's pass may run as segments, whose
// split no meter, trace or result may show. It holds when the pass stages
// nothing — a tee's groups would be cut where segments meet, and later scans
// of the stage would see other groups — and its budget cannot police, so no
// shed or reclaim can depend on which rows a goroutine counted first.
func (r *batchRun) segmentable() bool {
	return len(r.plan.fileTees) == 0 && len(r.plan.memTees) == 0 && r.cannotPolice()
}

// cannotPolice reports whether the pass's budget can never shed or reclaim
// mid-scan: every live table at its worst, each attribute's values and
// Missing times the classes and Missing at cc.EntryBytes a cell, plus the
// memory tees' planned rows at rowMemBytes (a node's rows are exact), fits
// the budget.
func (r *batchRun) cannotPolice() bool {
	m := r.m
	classes := int64(m.schema.Class.Card + 1)
	var worst int64
	for _, w := range r.live {
		for _, a := range w.attrs {
			worst += int64(m.cards[a]+1) * classes * cc.EntryBytes
		}
	}
	for _, t := range r.plan.memTees {
		worst += t.rows * r.rowMemBytes
	}
	return worst <= r.budget
}

// newSegment readies the shard of segment j > 0 of a pass: empty tables for
// the live requests, no tee and no police limit (segmentable proved none
// needed).
func (r *batchRun) newSegment(j int) *scanShard {
	r.m.scratchAt(j) // made here: segments only look their scratch up
	seg := &scanShard{scanBudget: scanBudget{limit: math.MaxInt64, ccs: make([]*cc.Table, len(r.live))}}
	for i, wk := range r.live {
		seg.ccs[i] = r.m.newTable(wk.attrs)
	}
	return seg
}

// settle folds a finished pass's shard into the run and re-polices the
// result against the real remaining budget: the derived tables are filled
// (fillDerived) and a reclaim may have moved the limit. A request shed
// mid-scan lacks some of its rows and cannot be completed this scan. Every
// table not kept goes back to the middleware.
func (r *batchRun) settle(sh *scanShard) {
	m, live, plan := r.m, r.live, r.plan
	settled := &scanBudget{
		limit:       r.budget,
		rowMemBytes: r.rowMemBytes,
		ccs:         sh.ccs,
		mems:        make([]teeRun, len(plan.memTees)),
		memDrop:     sh.memDrop,
		spares:      &m.spares,
		tags:        sh.tags,
		reclaim:     r.reclaim,
	}
	var shedMidScan []*Request
	for i, t := range sh.ccs {
		if t == nil {
			shedMidScan = append(shedMidScan, live[i].req)
		}
	}
	r.fillDerived(settled.ccs)
	for _, t := range settled.ccs {
		if t != nil {
			settled.ccBytes += t.Bytes()
		}
	}
	m.recycleTables(sh.dropped...)

	// Memory tees: a tee the pass abandoned is dropped; a survivor is the
	// groups the pass filled, then what its builder still holds. Sealed
	// builders go back to the middleware (a dropped tee's are let go).
	for j := range plan.memTees {
		if settled.memDrop[j] {
			continue
		}
		run := teeRun{groups: append([]*storage.ColGroup{}, sh.mems[j].groups...), tags: sh.mems[j].tags}
		run.take(int(sh.mems[j].rows), sh.mems[j].b.Seal())
		m.builders = append(m.builders, sh.mems[j].b)
		settled.mems[j] = run
		settled.teeBytes += run.rows * r.rowMemBytes
	}

	// File tees: the pass wrote the groups it filled into the staging files
	// as it went; append what each builder still holds.
	for k, t := range plan.fileTees {
		sh.writeFile(t, sh.files[k].Seal())
		m.builders = append(m.builders, sh.files[k])
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
	settled.police()
	m.recycleTables(settled.dropped...)
	for _, i := range settled.shed {
		if survivors--; survivors > 0 {
			r.requeued = append(r.requeued, live[i].req)
		} else {
			r.fallback = append(r.fallback, live[i].req)
		}
	}
	r.live = live[:0]
	for i, wk := range live {
		if t := settled.ccs[i]; t != nil {
			wk.cc = t
			r.live = append(r.live, wk)
		}
	}
	kept := plan.memTees[:0]
	for j, t := range plan.memTees {
		if !settled.memDrop[j] {
			t.mem = settled.mems[j]
			kept = append(kept, t)
		}
	}
	plan.memTees = kept
}

// scanSource drives the pass's row groups through the counting kernel
// (colConsumer), charging every operation to the middleware's meter and
// keeping all state in sh. The cursor opens once. A pass run as k segments
// splits its groups equal-width by count; each segment counts its part on a
// forked meter, the meters fold back serially (obs.RunSegments), and the
// segments' tables merge into the pass's in segment order, uncharged —
// counting is commutative, so the pass ends exactly as one goroutine would
// have left it.
func (r *batchRun) scanSource(ctx context.Context, src engine.GroupSource, sh *scanShard) error {
	m, ng := r.m, src.NumGroups()
	engine.OpenCursor(src, m.meter)
	if sh.segs == nil {
		return r.scanRange(ctx, src, 0, ng, 0, m.meter, sh)
	}
	k := len(sh.segs)
	obs.RunSegments(m.meter, k, func(j int, seg *sim.Meter) {
		lo, hi := j*ng/k, (j+1)*ng/k
		ss := sh.segs[j]
		ss.err = r.scanRange(ctx, src, lo, hi, j, seg, ss)
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

// scanRange counts row groups [lo, hi) of src into sh with the kernel of
// scratch j, charging m, until ctx is done, and folds the histograms of the
// last group it counted (a failed scan drops them); a staging file is read
// through the scratch's own open file and buffer.
func (r *batchRun) scanRange(ctx context.Context, src engine.GroupSource, lo, hi, j int, m *sim.Meter, sh *scanShard) error {
	if r.b.kind == srcFile {
		fsrc := r.m.files.source(r.b.stage.file, &r.m.scratch[j].buf)
		defer fsrc.close()
		src = fsrc
	}
	cons := r.colConsumer(j, m, sh)
	err := engine.ScanRange(ctx, src, []*engine.ScanConsumer{cons}, lo, hi, m)
	pairRows.Add(cons.PairRows())
	r.m.scratch[j].cons.end(err == nil)
	return err
}
