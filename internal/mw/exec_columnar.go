package mw

import (
	"slices"

	"repro/internal/cc"
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
// per bucketed row (cc.Bump) and folds its distinct cells into the table
// (cc.Table.Fold) — once per row group while the pass's budget cannot police,
// once per block while it can; staging tees keep their rows of the block as
// codes, and each row's tag beside it. A tee's rows are the ones that walk picked, with no
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
// walk that filtered the block — and each node bumps one dense histogram per
// attribute per bucketed row (CCBump), kept in the scratch's arena for the
// block's row group. The histograms fold their distinct cells into the
// node's shard table when the group ends — at the next group's first block,
// or when the scan does (flush) — if the pass's budget cannot police
// (batchRun.cannotPolice): no shed then reads a table's Bytes, so they need
// not be exact between blocks, and a 4096-row server group folds once, not
// four times. A pass whose budget can police folds each node's histograms
// right after its bumps, so one node's sit in the arena at a time, and polices
// after the block. Either way each block is charged CCFoldEntry per attribute on
// its fold's bound, min(rows, values × classes) of the block's dictionaries —
// the most cells it can add to a fold — so a derived node, which is not
// counted, is billed the same with no pass over its rows, and the clock does
// not depend on when the fold runs. A staging tee copies the rows of its
// node's bucket, or the block's selection for a tee over the whole batch. It
// is attached either to a batch's own pass or one of its segments
// (scanRange) or, as a session's share of a multi-tenant scan, to
// engine.ScanGroups via mw.SharedBatch — the same consumer either way, so
// shared and solo scans produce identical counts.
type colConsumer struct {
	plan       *stagePlan
	live       []*ccWork
	meter      *sim.Meter
	sh         *scanShard
	costs      sim.Costs
	classIdx   int
	perGroup   bool // fold when the group ends, not after each node's bumps
	curGroup   int  // index of the group dicts, classDict and classCodes are of
	dicts      [][]data.Value
	classDict  []data.Value
	classCodes []uint16

	// The histograms of the current group: node i's, one per attribute in
	// order, start at arena[at[i]] (-1: none yet), carved in the order
	// pending lists the nodes. Every cell outside them is zero.
	arena   []int64
	used    int
	at      []int
	pending []int
	folds   int64 // Fold calls, for tests
}

// colConsumer returns the batch's attachment to a columnar scan: the counting
// kernel of scratch j (metered on meter) over shard sh, fed per-path buckets
// by the scan's walk of the live paths' trie, which is also the filter the
// scan pushes down. Consumer and kernel are the scratch's, reset for the
// batch: what the scan and the kernel grew in them — buckets, the compiled
// trie, the histogram arena — is reused, and histograms a failed scan left
// pending are dropped.
func (r *batchRun) colConsumer(j int, meter *sim.Meter, sh *scanShard) *engine.ScanConsumer {
	ls := r.m.scratch[j]
	c, sc := &ls.cons, &ls.scan
	c.drop()
	c.plan, c.live, c.meter, c.sh = r.plan, r.live, meter, sh
	c.costs, c.classIdx, c.curGroup = meter.Costs(), r.m.schema.ClassIndex(), -1
	c.perGroup = r.cannotPolice()
	c.at = slices.Grow(c.at[:0], len(r.live))[:len(r.live)]
	for i := range c.at {
		c.at[i] = -1
	}
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
		c.flush()
		c.curGroup = blk.GroupIndex
		c.dicts = c.dicts[:0]
		for col := range g.NumCols() {
			c.dicts = append(c.dicts, g.Dict(col)) // a decoded group's dictionaries are its zone's: they outlive the buffer
		}
		c.classDict, c.classCodes = c.dicts[c.classIdx], g.Codes(c.classIdx)
	}
	nc := len(c.classDict)
	for i, sel := range blk.Buckets {
		t := sh.ccs[i]
		if t == nil || len(sel) == 0 {
			continue
		}
		meter.Charge(sim.CtrCCUpdates, c.costs.CCBump, int64(len(sel)))
		for _, a := range live[i].attrs {
			bound := min(len(sel), len(c.dicts[a])*nc)
			meter.Charge(sim.CtrCCFolds, c.costs.CCFoldEntry, int64(bound))
		}
		if live[i].from != nil {
			continue // derived once the pass is settled (derive.go)
		}
		off := c.histsOf(i)
		for _, a := range live[i].attrs {
			n := len(c.dicts[a]) * nc
			cc.Bump(c.arena[off:off+n], g.Codes(a), c.classCodes, nc, sel)
			off += n
		}
		t.AddRows(int64(len(sel)))
		if !c.perGroup {
			c.flush()
		}
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

// histsOf returns where live node i's histograms for the current group start
// in the arena, carving them, zero, on the node's first rows of the group.
func (c *colConsumer) histsOf(i int) int {
	if c.at[i] >= 0 {
		return c.at[i]
	}
	cells := 0
	for _, a := range c.live[i].attrs {
		cells += len(c.dicts[a])
	}
	c.at[i] = c.used
	c.used += cells * len(c.classDict)
	if c.used > len(c.arena) {
		c.arena = append(c.arena, make([]int64, c.used-len(c.arena))...)
	}
	c.pending = append(c.pending, i)
	return c.at[i]
}

// flush folds every pending histogram into its node's shard table, in the
// order the nodes were carved, and keeps the shard's count of table bytes.
// The folds leave the arena zero.
func (c *colConsumer) flush() {
	nc := len(c.classDict)
	for _, i := range c.pending {
		t, off := c.sh.ccs[i], c.at[i]
		before := t.Bytes()
		for _, a := range c.live[i].attrs {
			n := len(c.dicts[a]) * nc
			t.Fold(a, c.dicts[a], c.classDict, c.arena[off:off+n])
			off += n
		}
		c.folds += int64(len(c.live[i].attrs))
		c.sh.ccBytes += t.Bytes() - before
		c.at[i] = -1
	}
	c.pending, c.used = c.pending[:0], 0
}

// end closes the consumer's scan: a scan that ran to its end folds the
// histograms of its last group, a failed or cancelled one drops them. Either
// way the Fold calls it made are counted for tests.
func (c *colConsumer) end(ok bool) {
	if ok {
		c.flush()
	} else {
		c.drop()
	}
	foldCalls.Add(c.folds)
	c.folds = 0
}

// drop discards the pending histograms unfolded — a failed or cancelled
// scan's — leaving the arena zero.
func (c *colConsumer) drop() {
	clear(c.arena[:c.used])
	for _, i := range c.pending {
		c.at[i] = -1
	}
	c.pending, c.used = c.pending[:0], 0
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
