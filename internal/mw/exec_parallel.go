package mw

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// This file is the lane pipeline every batched scan runs through: plan the
// lanes (planLanes), run each over its partition of the source (runLanes),
// merge the worker shards and re-police the merged result (mergeShards). With
// Config.Workers > 1 the lanes are real goroutines over disjoint partitions;
// otherwise — or when the source cannot be split — the batch is one lane over
// the whole source, the paper's sequential execution module. The design
// constraint is determinism: results, staging contents and the virtual clock
// must be bit-for-bit reproducible regardless of GOMAXPROCS or goroutine
// interleaving, so
//
//   - every lane touches only lane-local state (CC shard tables, staging
//     buffers, its lane meter) — there is no shared mutable state and
//     therefore nothing scheduling-dependent. Two exceptions, both
//     single-writer: lane 0, first in file order, streams its file-tee rows
//     straight into the staging files, and a lone lane, which runs on the
//     caller's goroutine (obs.RunLanes), may reclaim staged memory mid-scan;
//   - partitions are contiguous ranges (page, TID or row-group ranges at the
//     server, row ranges for staged files and memory), so concatenating
//     worker staging buffers in partition order reproduces the sequential
//     scan order exactly;
//   - the parent clock advances by max(lane elapsed) at the barrier
//     (sim.Meter.Join) plus a serial per-entry shard-merge charge, modeling
//     the paper's multi-CPU middleware host.

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
	ccs         []*cc.Table  // index-aligned with the batch's live requests; nil once shed
	mems        [][]data.Row // per memTee: captured rows, scan order
	memDrop     []bool       // memTees abandoned (a partial capture is useless as staged data)
	shed        []int        // requests shed by police, in order
	// reclaim frees staged memory elsewhere in the middleware and returns the
	// enlarged limit; nil where that would race with other lanes.
	reclaim func() (int64, bool)
}

func (p *scanBudget) dropLargestTee() bool {
	li := -1
	for j := range p.mems {
		if p.memDrop[j] {
			continue
		}
		if li < 0 || len(p.mems[j]) > len(p.mems[li]) {
			li = j
		}
	}
	if li < 0 {
		return false
	}
	p.teeBytes -= int64(len(p.mems[li])) * p.rowMemBytes
	p.memDrop[li] = true
	p.mems[li] = nil
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
// shard tables and memory-tee buffers, and the lane's file-tee output. A
// worker writes nothing outside its shard and its lane meter — lane 0's
// write-through excepted — so the scan is race-free and every lane's final
// state is a pure function of its partition.
type workerShard struct {
	scanBudget
	// File-tee buffers, on every lane but lane 0 (where they stay nil): lane
	// 0's rows come first in file order, so it streams them into the staging
	// files as they are captured. Buffering them — as the later lanes must,
	// until lane 0 is done — would hold an encoded copy of everything staged
	// in RAM, outside the budget.
	fileBufs  [][]byte             // per fileTee: encoded captured rows
	fileRows  []int64              // per fileTee: rows in fileBufs
	fileStats []*engine.ValueStats // per fileTee: value histograms of the captured rows
	memSlabs  [][]data.Value       // per memTee: the unused rest of the slab its rows are carved from
	err       error
}

// newShard allocates the state of lane part of nlanes: its slice of the scan
// budget over fresh CC tables and tee buffers sized for the batch. A table
// reserves its vectors when its first row arrives, from the schema's
// cardinalities — a lane that never sees a node's rows pays nothing for it.
func (r *batchRun) newShard(part, nlanes int) *workerShard {
	nmem, nfile := len(r.plan.memTees), len(r.plan.fileTees)
	sh := &workerShard{scanBudget: scanBudget{
		// planLanes guarantees a split scan's slice is >= 1, so a lane only
		// sheds once it has actually accumulated state.
		limit:       r.budget / int64(nlanes),
		rowMemBytes: r.rowMemBytes,
		ccs:         make([]*cc.Table, len(r.live)),
		mems:        make([][]data.Row, nmem),
		memDrop:     make([]bool, nmem),
	}, memSlabs: make([][]data.Value, nmem)}
	for i, wk := range r.live {
		sh.ccs[i] = cc.NewSized(wk.attrs, r.m.cards, r.m.schema.Class.Card)
	}
	if nlanes == 1 {
		sh.reclaim = r.reclaim
	}
	if part == 0 {
		return sh
	}
	sh.fileBufs = make([][]byte, nfile)
	sh.fileRows = make([]int64, nfile)
	sh.fileStats = make([]*engine.ValueStats, nfile)
	for k := range sh.fileStats {
		sh.fileStats[k] = r.m.files.newStats()
	}
	return sh
}

// stageFileRow captures row for file tee k (t); the lane charges the write.
func (sh *workerShard) stageFileRow(k int, t *teePlan, row data.Row) {
	if sh.fileBufs == nil {
		t.writer.writeRow(row)
		return
	}
	sh.fileBufs[k] = row.Encode(sh.fileBufs[k])
	sh.fileRows[k]++
	sh.fileStats[k].Note(row)
}

// memSlabRows bounds the rows one slab of a per-row memory tee holds.
const memSlabRows = 256

// stageMemRow captures a fresh row of ncols values for memory tee j and
// returns it for the caller to fill. Rows are carved from slabs — one
// allocation per slab, not per staged row — and a new slab holds ahead rows:
// what the caller knows is still to come, so a tee that fills as expected
// wastes nothing.
func (sh *workerShard) stageMemRow(j, ncols, ahead int) data.Row {
	if len(sh.memSlabs[j]) < ncols {
		sh.memSlabs[j] = make([]data.Value, ncols*ahead)
	}
	row := sh.memSlabs[j][:ncols:ncols]
	sh.memSlabs[j] = sh.memSlabs[j][ncols:]
	sh.mems[j] = append(sh.mems[j], row)
	sh.teeBytes += sh.rowMemBytes
	return row
}

// scanPlan describes how a batch's scan splits into lanes: the lane count
// plus, for server batches, exactly one source the lanes read — the columnar
// copy's row groups (base table or copy-table), a page-partitioned heap, a
// keyset re-scan, or a TID join.
//
// bounds, when non-nil, holds nworkers+1 histogram-guided split points in
// the source's partition units (row groups, heap pages, keyset/TID-table
// indexes, or staged-file rows): lane w covers [bounds[w], bounds[w+1]),
// giving each lane approximately equal estimated matching rows instead of
// equal units. A nil bounds means the equal-width formula (the fallback
// whenever hints are unavailable or disabled).
type scanPlan struct {
	nworkers int
	// filter is the predicate pushed down to the source and, by
	// construction, the one the weighted bounds were estimated for: the
	// batch filter, or match-all under the no-pushdown ablation (where every
	// row is transmitted and weights are uniform anyway).
	filter   predicate.Filter
	col      *engine.Server // vectorized kernel over the columnar copy
	needCols []int          // columns the columnar scan reads (nil = all)
	srv      *engine.Server
	keyset   *engine.Keyset
	tidTab   *engine.TIDTable
	bounds   []int
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

// planLanes decides which partitionable source the batch's lanes read, how
// many lanes run, and — when statistics are available — the histogram-guided
// split boundaries (scanPlan.bounds) that give each lane approximately equal
// estimated work. The batch's staging tees enter the weighting with their
// write costs. The batch runs one lane whenever it cannot or should not be
// partitioned: Workers <= 1, a source with fewer than two units (pages, row
// groups, TIDs, rows — including none at all), or a scan-start budget so
// tight that the per-lane slice would truncate to zero — with a zero slice
// every lane would shed every request on its first counted row even though
// one lane, policing the whole budget, can succeed.
func (r *batchRun) planLanes() scanPlan {
	m, b, plan, live, budget := r.m, r.b, r.plan, r.live, r.budget
	sp := scanPlan{filter: r.scanFilter()}
	units := 0
	switch b.kind {
	case srcMemory:
		units = len(b.stage.mem)
	case srcFile:
		units = int(b.stage.file.rows)
	case srcServer:
		if csrv := m.columnarServer(b); csrv != nil {
			sp.col, sp.needCols = csrv, m.columnarNeedCols(plan, live)
			units = csrv.NumColGroups()
			break
		}
		// The auxiliary structure's builder is itself partitioned — see
		// maybeBuildAux.
		aux := m.maybeBuildAux(b)
		switch {
		case aux != nil && aux.keyset != nil:
			sp.keyset, units = aux.keyset, aux.keyset.Size()
		case aux != nil && aux.tidTab != nil:
			sp.tidTab, units = aux.tidTab, aux.tidTab.Size()
		default:
			sp.srv = m.srv
			if aux != nil && aux.subSrv != nil {
				sp.srv = aux.subSrv
			}
			units = sp.srv.NumPages()
		}
	}
	sp.nworkers = m.cfg.Workers
	if sp.nworkers > units {
		sp.nworkers = units
	}
	if sp.nworkers < 2 || budget/int64(sp.nworkers) == 0 {
		sp.nworkers = 1
		return sp
	}
	sp.bounds = m.splitBounds(b, plan, sp)
	return sp
}

// splitBounds computes the histogram-guided split for the chosen source, or
// nil for the equal-width default. All bounds are pure functions of table /
// file statistics and the batch filter, charged to no meter, so the split is
// deterministic and free — the statistics were collected during writes the
// simulation already paid for.
func (m *Middleware) splitBounds(b *batch, plan *stagePlan, sp scanPlan) []int {
	filter := sp.filter
	costs := m.meter.Costs()
	// The middleware-side cost each transmitted matching row incurs beyond
	// the engine's transmit charge: the file-write cost per staging tee it
	// feeds, plus counting it (at least one live request does). This weights
	// the split boundaries only — no charge is ever derived from it.
	teeCost := int64(len(plan.fileTees)) * costs.FileRowWrite
	perMatch := costs.CCUpdate + teeCost
	switch {
	case sp.col != nil:
		// Zone-map-skipped groups weigh nothing (ColGroupBounds); a matching
		// row pays the block kernel's transmit and histogram bump.
		return sp.col.ColGroupBounds(filter, sp.needCols, sp.nworkers, costs.ColRowTransmit+costs.CCBump+teeCost)
	case b.kind == srcFile:
		return m.fileSplitBounds(b.stage.file, filter, sp.nworkers, perMatch)
	case b.kind != srcServer:
		// Memory stages read uniformly cheap resident rows; equal-width row
		// ranges are already balanced to within the per-match CC cost.
		return nil
	case sp.keyset != nil:
		return sp.keyset.ScanBounds(&filter, sp.nworkers, perMatch)
	case sp.tidTab != nil:
		return sp.tidTab.JoinBounds(filter, sp.nworkers, perMatch)
	default:
		// PageBounds takes the full per-matching-row cost; transmission is
		// not implied (aux builders transmit nothing), so add it here.
		return sp.srv.PageBounds(filter, sp.nworkers, costs.RowTransmit+perMatch)
	}
}

// fileSplitBounds converts the staged file's per-bucket statistics into row
// split points: bucket weights (read cost per resident row plus perMatch per
// estimated matching row) choose bucket boundaries, and the buckets' row
// counts map those to file row offsets.
func (m *Middleware) fileSplitBounds(sf *stageFile, filter predicate.Filter, nparts int, perMatch int64) []int {
	if m.cfg.NoHistogramHints || sf == nil || sf.stats == nil {
		return nil
	}
	hints := sf.stats.BucketHints(filter)
	if hints == nil {
		return nil
	}
	readCost := m.meter.Costs().FileRowRead
	weights := make([]int64, len(hints))
	for i, h := range hints {
		weights[i] = h.Rows*readCost + h.Match*perMatch
	}
	bb := engine.WeightedBounds(weights, nparts)
	if bb == nil {
		return nil
	}
	// Bucket index -> row offset via the buckets' row-count prefix sums.
	offsets := make([]int64, len(hints)+1)
	for i, h := range hints {
		offsets[i+1] = offsets[i] + h.Rows
	}
	if offsets[len(hints)] != sf.rows {
		// Statistics out of step with the file (should not happen); refuse
		// to split on them rather than mis-tile the rows.
		return nil
	}
	bounds := make([]int, len(bb))
	for i, b := range bb {
		bounds[i] = int(offsets[b])
	}
	return bounds
}

// runLanes executes the batch's scan over sp.nworkers lanes and folds the
// result into the run. Each lane polices its 1/nworkers slice of the budget
// captured at scan start; mergeShards re-checks the merged totals against
// the whole of it.
func (r *batchRun) runLanes(sp scanPlan) error {
	m, n := r.m, sp.nworkers
	shards := make([]*workerShard, n)
	for part := range shards {
		shards[part] = r.newShard(part, n)
	}
	stats := make([]obs.LaneStat, n)
	rowCtr := scanRowCounter(r.b.kind)
	obs.RunLanes(m.meter, r.tr, n, func(part int, lane *sim.Meter, ltr *obs.Tracer) {
		sh := shards[part]
		lsp := ltr.Start(obs.CatLane, "lane").SetPartition(part, n)
		// A lone lane is the middleware's own meter: measure from here.
		start, rows := lane.Now(), lane.Count(rowCtr)
		sh.err = r.scanLane(sp, part, lane, sh)
		rows = lane.Count(rowCtr) - rows
		stats[part] = obs.LaneStat{Lane: part + 1, ElapsedNS: int64(lane.Now() - start), Rows: rows}
		lsp.SetRows(rows).End()
	})
	for _, sh := range shards {
		if sh.err != nil {
			return sh.err
		}
	}
	if n > 1 {
		r.laneStats = stats
	}
	r.mergeShards(shards)
	return nil
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
		mems:        make([][]data.Row, len(plan.memTees)),
		memDrop:     make([]bool, len(plan.memTees)),
		reclaim:     r.reclaim,
	}

	// Merge CC shards in partition order, charging the serial per-entry
	// merge cost on the parent meter. Counting is commutative over disjoint
	// partitions, so the merged tables are identical to a sequential scan's.
	// A request shed by any worker lacks that partition's rows and cannot be
	// completed this scan. A single shard has nothing to fold: no merge
	// span, no charge.
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
				continue requests
			}
		}
		t := shards[0].ccs[i]
		for _, sh := range shards[1:] {
			part := sh.ccs[i]
			m.meter.Charge(sim.CtrShardMergeEntries, mergeCost, int64(part.Entries()))
			mergedEntries += int64(part.Entries())
			t.Merge(part)
		}
		merged.ccs[i] = t
		merged.ccBytes += t.Bytes()
	}
	msp.Attr("entries", mergedEntries).End()

	// Memory tees: a tee abandoned by any worker is dropped entirely;
	// survivors concatenate the worker buffers in partition order, onto
	// lane 0's, which reproduces the sequential scan order exactly.
	for j := range plan.memTees {
		for _, sh := range shards {
			merged.memDrop[j] = merged.memDrop[j] || sh.memDrop[j]
		}
		if merged.memDrop[j] {
			continue
		}
		rows := shards[0].mems[j]
		for _, sh := range shards[1:] {
			rows = append(rows, sh.mems[j]...)
		}
		merged.mems[j] = rows
		merged.teeBytes += int64(len(rows)) * r.rowMemBytes
	}

	// File tees: lane 0 streamed its rows into the staging files during the
	// scan; append the later lanes' buffers in partition order. The per-row
	// write costs were charged in the lanes; this is the physical
	// concatenation only. Each worker's value statistics append in the same
	// order, so the file's buckets describe its rows exactly regardless of
	// how many lanes captured them.
	for k, t := range plan.fileTees {
		for _, sh := range shards[1:] {
			t.writer.writeEncoded(sh.fileBufs[k], sh.fileRows[k])
			t.writer.appendStats(sh.fileStats[k])
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

// scanLane is the body of one scan lane: it drives partition part of the
// batch's source through the counting kernel — vectorized over the columnar
// copy, per row otherwise — charging every operation to lane and keeping all
// state in sh.
func (r *batchRun) scanLane(sp scanPlan, part int, lane *sim.Meter, sh *workerShard) error {
	if sp.col != nil {
		lo, hi := engine.RangeOf(part, sp.nworkers, sp.col.NumColGroups(), sp.bounds)
		sp.col.ScanColumnarConsumer(r.colConsumer(lane, sh), sp.needCols, lo, hi)
		return nil
	}
	live, plan, costs := r.live, r.plan, lane.Costs()
	var hits []int32 // the live requests whose path the current row satisfies
	return r.m.scanPartition(r.b, sp, part, lane, func(row data.Row) {
		hits = r.paths.Match(row, hits[:0])
		for _, i := range hits {
			t := sh.ccs[i]
			if t == nil {
				continue
			}
			before := t.Bytes()
			t.AddRow(row, live[i].attrs)
			sh.ccBytes += t.Bytes() - before
			lane.Charge(sim.CtrCCUpdates, costs.CCUpdate, 1)
		}
		sh.police()
		for k, t := range plan.fileTees {
			if t.filter.Eval(row) {
				sh.stageFileRow(k, t, row)
				lane.Charge(sim.CtrFileRowsWritten, costs.FileRowWrite, 1)
			}
		}
		for j, t := range plan.memTees {
			if !sh.memDrop[j] && t.filter.Eval(row) {
				// Rows arrive one at a time: size the slab by what the tee
				// still expects of its node.
				ahead := min(max(t.rows-int64(len(sh.mems[j])), 1), memSlabRows)
				copy(sh.stageMemRow(j, len(row), int(ahead)), row)
			}
		}
	})
}

// scanPartition drives every row of partition part of the batch's row source
// through process, charging all per-row costs to lane.
func (m *Middleware) scanPartition(b *batch, sp scanPlan, part int, lane *sim.Meter, process func(data.Row)) error {
	switch b.kind {
	case srcMemory:
		rows := b.stage.mem
		lo, hi := engine.RangeOf(part, sp.nworkers, len(rows), sp.bounds)
		cost := lane.Costs().MemRowRead
		for _, row := range rows[lo:hi] {
			lane.Charge(sim.CtrMemRowsRead, cost, 1)
			process(row)
		}
		return nil
	case srcFile:
		sf := b.stage.file
		lo, hi := engine.RangeOf(part, sp.nworkers, int(sf.rows), sp.bounds)
		return m.files.scanRange(sf, int64(lo), int64(hi), lane, func(row data.Row) error {
			process(row)
			return nil
		})
	case srcServer:
		cur := openLaneCursor(sp, part, lane)
		defer cur.Close()
		for {
			row, ok := cur.Next()
			if !ok {
				return nil
			}
			process(row)
		}
	}
	return fmt.Errorf("mw: unknown source kind %d", b.kind)
}

// openLaneCursor opens lane part's cursor on a server batch's row source: a
// page range of the base table or copy-table, or a TID range of a keyset
// re-scan or TID join. Who pays for the heap pages follows from lane inside
// the engine: a lone lane is the middleware's own meter, hence the server's
// only stream, and reads through the buffer pool; the forked lanes of a split
// scan read their ranges cold (engine.Server.OpenScanRange).
func openLaneCursor(sp scanPlan, part int, lane *sim.Meter) engine.Cursor {
	filter := sp.filter
	switch {
	case sp.keyset != nil:
		lo, hi := engine.RangeOf(part, sp.nworkers, sp.keyset.Size(), sp.bounds)
		return sp.keyset.OpenScanRange(&filter, lo, hi, lane)
	case sp.tidTab != nil:
		lo, hi := engine.RangeOf(part, sp.nworkers, sp.tidTab.Size(), sp.bounds)
		return sp.tidTab.OpenJoinRange(filter, lo, hi, lane)
	}
	lo, hi := engine.RangeOf(part, sp.nworkers, sp.srv.NumPages(), sp.bounds)
	return sp.srv.OpenScanRange(filter, lo, hi, lane)
}
