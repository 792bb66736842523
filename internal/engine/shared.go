package engine

import (
	"fmt"

	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the server side of multi-tenant scan sharing: the paper's
// batching idea (§4.1 — merge many nodes' counting work into one data scan)
// lifted from nodes-within-a-build to builds-within-a-fleet. Concurrent
// sessions whose current batch scans the same table attach a ScanConsumer
// each to one physical columnar scan; the block stream is decoded once and
// fanned out, so the page I/O is charged once (to the shared io meter) while
// each consumer pays its own per-row evaluation and transmission on its own
// session lane.

// ScanConsumer is one session's attachment to a shared columnar scan.
type ScanConsumer struct {
	// Filter is the consumer's pushed-down batch filter; it is compiled per
	// row group, so each consumer keeps its private zone-map skipping even
	// inside a shared scan.
	Filter predicate.Filter
	// Paths, when set, is the trie of the node paths the consumer counts by.
	// The scan then compiles that one trie per row group and walks it once per
	// row, filling ColBlock.Buckets and Sel together. Filter must be the
	// paths' own disjunction (Paths.Filter()) or match-all — unfiltered rows,
	// still bucketed by path.
	Paths *predicate.Trie
	// Lane receives the consumer's own costs: group/block counters, per-row
	// evaluation and row transmission. Required.
	Lane *sim.Meter
	// Fn receives each block with Sel holding this consumer's matching rows
	// and, with Paths, Buckets holding them per path. Returning false
	// detaches the consumer: it sees no further blocks while the scan
	// continues for the others.
	Fn func(blk *ColBlock) bool

	// local marks a statement's scan (scanSource): the selected rows feed the
	// executor inside the server, so none is charged ColRowTransmit.
	local    bool
	detached bool
	gf       GroupFilter // with Paths, gf.trie is the paths' router as well
	sel      []int32
	buckets  [][]int32 // per path of Paths: the block's rows satisfying it
}

// compile readies the consumer's filter — and with Paths its router — for g.
func (c *ScanConsumer) compile(g *storage.ColGroup) {
	if c.Paths == nil {
		c.gf.Compile(g, c.Filter)
		return
	}
	gf := &c.gf
	gf.all, gf.none, gf.rows = true, false, int64(g.NumRows())
	gf.trie.Compile(g, c.Paths)
	if !c.Filter.All() {
		gf.all, gf.none = gf.trie.cover()
	}
}

// walk fills c.sel — and with Paths c.buckets — for rows [base, base+n) of the
// compiled group.
func (c *ScanConsumer) walk(base, n int) {
	if c.Paths == nil {
		c.sel = c.gf.selectBlock(base, n, c.sel[:0])
		return
	}
	for k := range c.buckets {
		c.buckets[k] = c.buckets[k][:0]
	}
	c.sel = c.gf.trie.route(base, n, c.gf.all, c.buckets, c.sel[:0])
}

// ScanColumnarShared runs one physical columnar scan over all row groups and
// fans every block out to the attached consumers. Shared costs go to io (the
// server's own meter when nil): one cursor open for the whole cohort, and the
// column pages of each group that at least one consumer needs — charged once,
// however many consumers read the group. needCols lists the union of the
// columns any consumer touches (nil means all).
func (s *Server) ScanColumnarShared(cons []*ScanConsumer, needCols []int, io *sim.Meter) {
	if io == nil {
		io = s.meter
	}
	io.Charge(sim.CtrServerScans, io.Costs().CursorOpen, 1)
	s.table.scanColumnar(cons, needCols, 0, s.NumColGroups(), io)
}

// scanColumnar is the engine's one columnar group/block loop: row groups
// [loGroup, hiGroup) of t streamed once, every BlockRows-row block fanned out
// to the attached consumers. Opening a cursor is the caller's charge — a
// cursor scan pays CursorOpen on io first, a statement's scan does not. Per
// group, each consumer's filter — its paths' trie, when it attached one — is
// compiled once against the group's dictionaries; a consumer whose filter
// cannot match skips the group on its own lane (zone-map verdict) without
// forcing or joining the read, and a group no consumer needs charges nothing
// — not even page I/O. Per block, each reading consumer pays its own
// evaluation and transmission, and one walk of its trie per row fills Sel and
// Buckets together. Consumers are fed in slice order, so the interleaving is
// deterministic; the scan ends early once every consumer has detached.
func (t *Table) scanColumnar(cons []*ScanConsumer, needCols []int, loGroup, hiGroup int, io *sim.Meter) {
	cs := t.colstore
	if cs == nil {
		panic(fmt.Sprintf("engine: table %q has no columnar copy", t.Name))
	}
	if ng := cs.NumGroups(); loGroup < 0 || hiGroup < loGroup || hiGroup > ng {
		panic(fmt.Sprintf("engine: invalid columnar range [%d, %d) of %d groups", loGroup, hiGroup, ng))
	}
	for i, c := range cons {
		if c.Lane == nil || c.Fn == nil {
			panic(fmt.Sprintf("engine: shared-scan consumer %d missing lane or callback", i))
		}
		if c.Paths != nil {
			if !c.Filter.All() && c.Filter.Trie() != c.Paths {
				panic(fmt.Sprintf("engine: shared-scan consumer %d filters by something other than its paths", i))
			}
			if len(c.buckets) != c.Paths.Len() {
				c.buckets = make([][]int32, c.Paths.Len())
			}
		}
		c.detached = false
	}
	attached := len(cons)
	costs := io.Costs()
	blk := &ColBlock{}
	for gi := loGroup; gi < hiGroup && attached > 0; gi++ {
		g := cs.Group(gi)
		readers := 0
		for _, c := range cons {
			if c.detached {
				continue
			}
			c.compile(g)
			if c.gf.None() {
				c.Lane.Charge(sim.CtrColGroupsSkipped, 0, 1)
				continue
			}
			c.Lane.Charge(sim.CtrColGroupsScanned, 0, 1)
			readers++
		}
		if readers == 0 {
			continue // no consumer needs this group: no page is read
		}
		io.Charge(sim.CtrServerPages, costs.ServerPageIO, g.Pages(needCols))
		nrows := g.NumRows()
		for base := 0; base < nrows && attached > 0; base += BlockRows {
			n := nrows - base
			if n > BlockRows {
				n = BlockRows
			}
			for _, c := range cons {
				if c.detached || c.gf.None() {
					continue
				}
				c.Lane.Charge(sim.CtrColBlocks, 0, 1)
				c.Lane.Charge(sim.CtrServerRows, costs.ColRowEval, int64(n))
				c.walk(base, n)
				if !c.local {
					c.Lane.Charge(sim.CtrRowsTransmitted, costs.ColRowTransmit, int64(len(c.sel)))
				}
				blk.Group, blk.GroupIndex, blk.Base, blk.N, blk.Sel, blk.Buckets = g, gi, base, n, c.sel, c.buckets
				if !c.Fn(blk) {
					c.detached = true
					attached--
				}
			}
		}
	}
}
