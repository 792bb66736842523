package mw

import (
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
// row's tag beside it. A tee's rows are the ones that walk picked, with no
// filter of its own: its node's bucket, or the block's selection (Sel, the
// rows the live paths select) for a tee over the whole batch. A scan hands
// the engine its source's row tags — the middleware's per row of the server
// table, or the stage's own — and their classes under the batch's paths
// (batchRun.tagRows), so each row's walk starts at the node the previous
// level left it in; a tee copies the tag the walk just wrote forward into its
// stage, so the stage's next scan starts there too.

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
// no pass over its rows. A staging tee copies the rows of its node's bucket,
// or the block's selection for a tee over the whole batch. It is
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

	curGroup   int // index of the group classDict and classCodes are of
	classDict  []data.Value
	classCodes []uint16
	hist       []int64
}

// colConsumer returns the batch's attachment to a columnar scan: the counting
// kernel of scratch j (metered on meter) over shard sh, fed per-path buckets
// by the scan's walk of the live paths' trie, which is also the filter the
// scan pushes down. Consumer and kernel are the scratch's, reset for the
// batch: what the scan and the kernel grew in them — buckets, the compiled
// trie, the fold histogram — is reused.
func (r *batchRun) colConsumer(j int, meter *sim.Meter, sh *scanShard) *engine.ScanConsumer {
	ls := r.m.scratch[j]
	c, sc := &ls.cons, &ls.scan
	c.plan, c.live, c.meter, c.sh = r.plan, r.live, meter, sh
	c.costs, c.classIdx, c.curGroup = meter.Costs(), r.m.schema.ClassIndex(), -1
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
		sel := t.rowsOf(blk)
		t.writer.sf.tags = appendTags(t.writer.sf.tags, blk.Tags, sel)
		sh.writeFile(t, sh.files[k].AppendSel(g, sel))
		meter.Charge(sim.CtrFileRowsWritten, c.costs.FileRowWrite, int64(len(sel)))
	}
	for j, t := range plan.memTees {
		if !sh.memDrop[j] {
			sel := t.rowsOf(blk)
			sh.mems[j].tags = appendTags(sh.mems[j].tags, blk.Tags, sel)
			sh.stageMem(j, len(sel), sh.mems[j].b.AppendSel(g, sel))
		}
	}
	return true
}

// rowsOf returns the rows of blk tee t keeps: its node's bucket, or for a tee
// over the whole batch the block's selection, which is the union of the
// buckets.
func (t *teePlan) rowsOf(blk *engine.ColBlock) []int32 {
	if t.node < 0 {
		return blk.Sel
	}
	return blk.Buckets[t.node]
}
