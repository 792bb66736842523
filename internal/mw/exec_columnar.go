package mw

import (
	"slices"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/sim"
)

// This file is the middleware half of the block kernel every batch is counted
// by, whatever its source — the server's columnar copy, a keyset or TID table
// over it, a staged file, staged memory. Per 1024-row block the engine's scan
// walks each row once down the trie of the live nodes' paths in dictionary-code
// space, which both filters it and drops it into its nodes' buckets
// (engine.ColBlock.Buckets); per node, the middleware bumps a dense histogram
// per bucketed row (cc.Table.AddMany) and folds the distinct cells into the
// table once; staging tees keep their rows of the block as codes, and each
// row's tag beside it. A scan hands the engine its source's row tags — the
// middleware's per row of the server table, or the stage's own — and their
// classes under the batch's paths (batchRun.tagRows), so each row's walk
// starts at the node the previous level left it in; a tee copies the tag the
// walk just wrote forward into its stage, so the stage's next scan starts
// there too.

// columnarNeedCols returns the columns whose pages the columnar scan must
// read: every counted attribute (the class column rides along in each
// request's attrs) plus every path-predicate attribute. nil — all columns —
// when staging tees capture full rows, or when the batch already touches
// every column.
func (m *Middleware) columnarNeedCols(plan *stagePlan, live []*ccWork) []int {
	if len(plan.fileTees) > 0 || len(plan.memTees) > 0 {
		return nil
	}
	ncols := m.schema.NumCols()
	need := make([]bool, ncols)
	cnt := 0
	mark := func(a int) {
		if a >= 0 && a < ncols && !need[a] {
			need[a] = true
			cnt++
		}
	}
	for _, w := range live {
		for _, a := range w.attrs {
			mark(a)
		}
		for _, c := range w.req.Path {
			mark(c.Attr)
		}
	}
	if cnt == ncols {
		return nil
	}
	cols := make([]int, 0, cnt)
	for a, ok := range need {
		if ok {
			cols = append(cols, a)
		}
	}
	return cols
}

// colConsumer is the per-block body of the kernel, counting one batch's live
// requests into one shard. The scan hands it each block already routed —
// blk.Buckets[i] holds the rows of live request i, filled by the same trie
// walk that filtered the block — and each node bumps the dense histogram per
// bucketed row (CCBump) and folds its distinct cells into its shard table.
// The fold is charged CCFoldEntry per attribute on its bound, min(rows,
// values × classes) of the block's dictionaries — the most cells it can
// visit — so a derived node, which is not counted, is billed the same with
// no pass over its rows. The tee filters compile once per row group into
// dictionary-code space, into storage reused from group to group. It is
// attached either to a batch's own pass or one of its segments (scanRange)
// or, as a session's share of a multi-tenant scan, to engine.ScanGroups via
// mw.SharedBatch — the same consumer either way, so shared and solo scans
// produce identical counts.
type colConsumer struct {
	plan     *stagePlan
	live     []*ccWork
	meter    *sim.Meter
	sh       *scanShard
	costs    sim.Costs
	classIdx int

	curGroup    int // index of the group the tee filters are compiled for
	fileFilters []engine.GroupFilter
	memFilters  []engine.GroupFilter
	classDict   []data.Value
	classCodes  []uint16
	teeSel      []int32
	hist        []int64
}

// colConsumer returns the batch's attachment to a columnar scan: the counting
// kernel of scratch j (metered on meter) over shard sh, fed per-path buckets
// by the scan's walk of the live paths' trie, which is also the filter the
// scan pushes down. Consumer and kernel are the scratch's, reset for the
// batch: what the scan and the kernel grew in them — buckets, compiled tries,
// the fold histogram — is reused.
func (r *batchRun) colConsumer(j int, meter *sim.Meter, sh *scanShard) *engine.ScanConsumer {
	ls := r.m.scratch[j]
	c, sc := &ls.cons, &ls.scan
	c.plan, c.live, c.meter, c.sh = r.plan, r.live, meter, sh
	c.costs, c.classIdx, c.curGroup = meter.Costs(), r.m.schema.ClassIndex(), -1
	c.fileFilters = slices.Grow(c.fileFilters[:0], len(r.plan.fileTees))[:len(r.plan.fileTees)]
	c.memFilters = slices.Grow(c.memFilters[:0], len(r.plan.memTees))[:len(r.plan.memTees)]
	sc.Filter, sc.Paths, sc.Meter = r.scanFilter(), r.paths, meter
	sc.Tags, sc.Classes = nil, nil
	if r.tags != nil {
		sc.Tags, sc.Classes = r.rowTags, &r.tags.classes
	}
	if sc.Fn == nil {
		sc.Fn = c.consume
	}
	return sc
}

// consume processes one block of the columnar scan; it always keeps the
// consumer attached.
func (c *colConsumer) consume(blk *engine.ColBlock) bool {
	sh, meter, plan, live := c.sh, c.meter, c.plan, c.live
	g := blk.Group
	if blk.GroupIndex != c.curGroup { // not g: a file source decodes every group into one buffer
		c.curGroup = blk.GroupIndex
		for k, t := range plan.fileTees {
			c.fileFilters[k].Compile(g, t.filter)
		}
		for j, t := range plan.memTees {
			c.memFilters[j].Compile(g, t.filter)
		}
		c.classDict, c.classCodes = g.Dict(c.classIdx), g.Codes(c.classIdx)
	}
	for i, sel := range blk.Buckets {
		t := sh.ccs[i]
		if t == nil || len(sel) == 0 {
			continue
		}
		meter.Charge(sim.CtrCCUpdates, c.costs.CCBump, int64(len(sel)))
		for _, a := range live[i].attrs {
			bound := min(len(sel), len(g.Dict(a))*len(c.classDict))
			meter.Charge(sim.CtrCCFolds, c.costs.CCFoldEntry, int64(bound))
		}
		if live[i].from != nil {
			continue // derived once the pass is settled (derive.go)
		}
		before := t.Bytes()
		for _, a := range live[i].attrs {
			c.hist, _ = t.AddMany(a, g.Dict(a), g.Codes(a), c.classDict, c.classCodes, sel, c.hist)
		}
		t.AddRows(int64(len(sel)))
		sh.ccBytes += t.Bytes() - before
	}
	sh.police()
	// Tees keep their rows of the block in code space — nothing is decoded —
	// and each row's tag as the walk just left it.
	for k, t := range plan.fileTees {
		c.teeSel = c.fileFilters[k].Refine(blk.Sel, c.teeSel[:0])
		t.writer.sf.tags = appendTags(t.writer.sf.tags, blk.Tags, c.teeSel)
		sh.writeFile(t, sh.files[k].AppendSel(g, c.teeSel))
		meter.Charge(sim.CtrFileRowsWritten, c.costs.FileRowWrite, int64(len(c.teeSel)))
	}
	for j := range plan.memTees {
		if !sh.memDrop[j] {
			c.teeSel = c.memFilters[j].Refine(blk.Sel, c.teeSel[:0])
			sh.mems[j].tags = appendTags(sh.mems[j].tags, blk.Tags, c.teeSel)
			sh.stageMem(j, len(c.teeSel), sh.mems[j].b.AppendSel(g, c.teeSel))
		}
	}
	return true
}
