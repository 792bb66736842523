package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the server side of multi-tenant scan sharing: the paper's
// batching idea (§4.1 — merge many nodes' counting work into one data scan)
// lifted from nodes-within-a-build to builds-within-a-fleet. Concurrent
// sessions whose current batch scans the same table attach a ScanConsumer
// each to one physical columnar scan (ScanGroups); the block stream is decoded
// once and fanned out, so the page I/O is charged once (to the shared io
// meter) while each consumer pays its own per-row evaluation and transmission
// on its own session meter.

// ScanConsumer is one session's attachment to a shared columnar scan.
type ScanConsumer struct {
	// Filter is the consumer's pushed-down batch filter; it is compiled per
	// row group, so each consumer keeps its private zone-map skipping even
	// inside a shared scan.
	Filter predicate.Filter
	// Paths, when set, is the trie of the node paths the consumer counts by.
	// The scan then compiles that one trie per row group and walks it once per
	// row, filling ColBlock.Buckets and Sel together: Sel is the rows the
	// paths' disjunction selects. Filter must be that disjunction
	// (Paths.Filter()) or match-all. Match-all is the no-pushdown ablation, a
	// charge and not a selection: the zone maps skip no group, and every
	// evaluated row pays its transmission. A consumer of a pre-selected source
	// (GroupSource.Sel) must attach its paths.
	Paths *predicate.Trie
	// Tags, with Paths, is the session's tag per row of the source — of the
	// table, for its copy or a row set over it (a row set's rows are its
	// table's); of the stage, for a middleware stage — indexed by the row's
	// position there: row i of group gi is Tags[src.FirstRow(gi)+i]. Classes
	// are their classes under Paths: the walk starts each row at its tag's
	// class and writes back the tag of the last conjunction it reached through
	// a test. Only the consumer's scan writes them, and only the tags of the
	// rows it walks. Nil: every row starts at the root.
	Tags    []uint32
	Classes *TagClasses
	// Meter receives the consumer's own costs: group/block counters, per-row
	// evaluation and row transmission. Required.
	Meter *sim.Meter
	// Fn receives each block with Sel holding this consumer's matching rows
	// and, with Paths, Buckets holding them per path. Returning false
	// detaches the consumer: it sees no further blocks while the scan
	// continues for the others.
	Fn func(blk *ColBlock) bool

	// local marks a statement's scan (scanSource): the selected rows feed the
	// executor inside the server, so none is charged ColRowTransmit.
	local    bool
	detached bool
	gf       groupFilter // with Paths, gf.trie is the paths' router
	tw       tagWalk     // with Tags, the classes compiled against gf.trie's group
	sel      []int32
	buckets  [][]int32 // per path of Paths: the block's rows satisfying it
}

// Release detaches c from the scan it last served — filter, paths, meter and
// the group its filter is compiled against — keeping Fn and the storage its
// scans grew, so a consumer kept for later scans holds nothing of this one.
func (c *ScanConsumer) Release() {
	c.Filter, c.Paths, c.Tags, c.Classes, c.Meter = predicate.Filter{}, nil, nil, nil, nil
	c.gf.Release()
	c.tw.release()
}

// PairRows returns how many rows the consumer's last scan bucketed by a pair
// select.
func (c *ScanConsumer) PairRows() int64 { return c.tw.pairs }

// compile readies the consumer's filter — and with Paths its router — for g.
func (c *ScanConsumer) compile(g *storage.ColGroup) {
	if c.Paths == nil {
		c.gf.Compile(g, c.Filter)
		return
	}
	gf := &c.gf
	gf.trie.Compile(g, c.Paths)
	gf.all, gf.none = gf.trie.cover()
	gf.none = gf.none && !c.Filter.All() // no pushdown: the zone maps skip nothing
}

// walk fills c.sel — and with Paths c.buckets — for rows [base, base+n) of the
// compiled group or, when the source pre-selected the group's rows, for those of
// them in the block (seed, non-nil; only a consumer with Paths gets one).
func (c *ScanConsumer) walk(base, n int, seed []int32) {
	if c.Paths == nil {
		c.sel = c.gf.selectBlock(base, n, c.sel[:0])
		return
	}
	for k := range c.buckets {
		c.buckets[k] = c.buckets[k][:0]
	}
	var tw *tagWalk
	if c.tw.rows != nil {
		tw = &c.tw
	}
	c.sel = c.gf.trie.route(base, n, seed, c.gf.all, tw, c.buckets, c.sel[:0])
}

// GroupSource is an ordered run of row groups the block loop can scan: a
// table's columnar copy — all of it, or the rows a keyset or TID table captured
// (RowSet) — or a middleware stage, in memory or in a file, made of the same kind
// of groups. A source with per-scan state (an open file) is made per segment.
type GroupSource interface {
	NumGroups() int
	// Zone returns group gi as far as planning needs it — row count,
	// dictionaries; the code vectors may be absent: filters
	// compile against it, a zone-map skip rests on it.
	Zone(gi int) *storage.ColGroup
	// Read returns group gi with its code vectors; the loop charges ChargeRead.
	Read(gi int) (*storage.ColGroup, error)
	// Sel returns, for a source that is a pre-selected row set, the rows of
	// group gi it holds — ascending group-relative indices, which the walk of a
	// block starts from in place of all its rows; a group holding none is passed
	// over uncharged. Every other source holds whole groups: seeded is false.
	Sel(gi int) (rows []int32, seeded bool)
	// ChargeRead charges m what reading group gi costs, once per scan however
	// many consumers share it.
	ChargeRead(gi int, m *sim.Meter)
	// FirstRow returns the position of group gi's first row among the rows a
	// consumer's tags index (ScanConsumer.Tags): in the table, for its copy or
	// a row set over it; in the stage, for a middleware stage.
	FirstRow(gi int) int
	// AtServer reports that the groups are read through the server, which then
	// charges every consumer, at the prices it returns, per row it evaluates
	// and — unless the rows stay inside the server — per row it selects. A stage
	// is already in the middleware: ChargeRead is all reading it costs.
	AtServer() (RowPrices, bool)
}

// RowPrices are a server source's per-row charges to each consumer of a scan.
type RowPrices struct{ Eval, Transmit int64 }

// tableGroups is a table's columnar copy as a GroupSource: a group costs the
// pages of the columns the scan needs (nil means all), a row the block prices.
type tableGroups struct {
	cs       *storage.ColStore
	needCols []int
	pageIO   int64
	prices   RowPrices
}

// groups returns t's columnar copy as a source under the cost model c.
func (t *Table) groups(needCols []int, c sim.Costs) tableGroups {
	return tableGroups{t.colstore, needCols, c.ServerPageIO, RowPrices{c.ColRowEval, c.ColRowTransmit}}
}

func (t tableGroups) NumGroups() int                         { return t.cs.NumGroups() }
func (t tableGroups) Zone(gi int) *storage.ColGroup          { return t.cs.Group(gi) }
func (t tableGroups) Read(gi int) (*storage.ColGroup, error) { return t.cs.Group(gi), nil }
func (t tableGroups) Sel(int) ([]int32, bool)                { return nil, false }
func (t tableGroups) ChargeRead(gi int, m *sim.Meter) {
	m.Charge(sim.CtrServerPages, t.pageIO, t.cs.Group(gi).Pages(t.needCols))
}
func (t tableGroups) AtServer() (RowPrices, bool) { return t.prices, true }
func (t tableGroups) FirstRow(gi int) int         { return gi * storage.RowGroupSize }

// ScanGroups is a cursor scan of row groups [loGroup, hiGroup) of src: one
// physical pass fanned out to every attached consumer — a middleware scan's
// one, or a fleet cohort's many. What the consumers share goes to io: the cursor
// open (OpenCursor), and each group's ReadCharge once (hand a server source the
// union of the columns they touch).
func ScanGroups(ctx context.Context, src GroupSource, cons []*ScanConsumer, loGroup, hiGroup int, io *sim.Meter) error {
	OpenCursor(src, io)
	return ScanRange(ctx, src, cons, loGroup, hiGroup, io)
}

// OpenCursor charges io for opening a cursor over src: one CursorOpen at the
// server, nothing for a stage. A cursor scan split into segments pays it once,
// then runs ScanRange over each segment's groups.
func OpenCursor(src GroupSource, io *sim.Meter) {
	if _, atServer := src.AtServer(); atServer {
		io.Charge(sim.CtrServerScans, io.Costs().CursorOpen, 1)
	}
}

// ScanRange is the one columnar group/block loop: row groups
// [loGroup, hiGroup) of src streamed once, every BlockRows-row block fanned out
// to the attached consumers. Opening a cursor is the caller's charge — a
// cursor scan (ScanGroups) pays for it first, a statement's scan does not. Per
// group, each consumer's filter — its paths' trie, when it attached one — is
// compiled once against the group's dictionaries; a consumer whose filter
// cannot match skips the group on its own meter (zone-map verdict) without
// forcing or joining the read — never one whose paths go unpushed (Filter
// match-all) — and a group no consumer needs is neither read nor charged. Per
// block, a consumer of a server source pays its own evaluation and
// transmission, and one walk of its trie per row — from the row's tag's class,
// for a consumer with Tags — fills Sel and Buckets together; of a pre-selected
// source (GroupSource.Sel), which only a consumer with paths may scan, only
// the rows it holds are walked and paid for, and a block or group holding
// none is passed over. Consumers are fed in slice order, so the interleaving
// is deterministic; the scan ends early once every consumer has detached,
// with the source's error when a group cannot be read, and with ctx.Err()
// when ctx is done — checked before every block, so a cancelled scan stops
// within one block and a scan that is never cancelled charges exactly what it
// would without ctx.
func ScanRange(ctx context.Context, src GroupSource, cons []*ScanConsumer, loGroup, hiGroup int, io *sim.Meter) error {
	if ng := src.NumGroups(); loGroup < 0 || hiGroup < loGroup || hiGroup > ng {
		panic(fmt.Sprintf("engine: invalid columnar range [%d, %d) of %d groups", loGroup, hiGroup, ng))
	}
	seeded := false
	if loGroup < hiGroup {
		_, seeded = src.Sel(loGroup)
	}
	for i, c := range cons {
		if c.Meter == nil || c.Fn == nil {
			panic(fmt.Sprintf("engine: shared-scan consumer %d missing meter or callback", i))
		}
		if c.Paths == nil && seeded {
			panic(fmt.Sprintf("engine: shared-scan consumer %d scans a pre-selected source without paths", i))
		}
		if c.Paths != nil {
			if !c.Filter.All() && c.Filter.Trie() != c.Paths {
				panic(fmt.Sprintf("engine: shared-scan consumer %d filters by something other than its paths", i))
			}
			// Resized in place: a consumer reused scan after scan keeps the
			// buckets its earlier scans grew.
			if n := c.Paths.Len(); cap(c.buckets) < n {
				c.buckets = append(c.buckets[:cap(c.buckets)], make([][]int32, n-cap(c.buckets))...)
			}
			c.buckets = c.buckets[:c.Paths.Len()]
		}
		if c.Tags != nil && (c.Paths == nil || c.Classes == nil || c.Classes.Len() == 0) {
			panic(fmt.Sprintf("engine: shared-scan consumer %d has tags without paths or classes", i))
		}
		c.detached = false
		c.tw.rows, c.tw.pairs = nil, 0
	}
	attached := len(cons)
	prices, atServer := src.AtServer()
	blk := &ColBlock{}
	for gi := loGroup; gi < hiGroup && attached > 0; gi++ {
		held, seeded := src.Sel(gi)
		if seeded && len(held) == 0 {
			continue // the row set holds nothing of this group
		}
		zone := src.Zone(gi)
		readers := 0
		for _, c := range cons {
			if c.detached {
				continue
			}
			c.compile(zone)
			if c.gf.None() {
				c.Meter.Charge(sim.CtrColGroupsSkipped, 0, 1)
				continue
			}
			c.Meter.Charge(sim.CtrColGroupsScanned, 0, 1)
			readers++
		}
		if readers == 0 {
			continue // no consumer needs this group: nothing is read
		}
		g, err := src.Read(gi)
		if err != nil {
			return err
		}
		src.ChargeRead(gi, io)
		for _, c := range cons {
			if c.detached || c.gf.None() {
				continue
			}
			if g != zone {
				c.gf.trie.bind(g)
			}
			if c.Tags != nil {
				c.tw.bind(c.Tags, c.Classes, src.FirstRow(gi), &c.gf.trie)
			}
		}
		nrows := g.NumRows()
		for base := 0; base < nrows && attached > 0; base += BlockRows {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := nrows - base
			if n > BlockRows {
				n = BlockRows
			}
			evaluated := n
			var seed []int32 // of a pre-selected source: the rows it holds of this block
			if seeded {
				evaluated = sort.Search(len(held), func(i int) bool { return int(held[i]) >= base+n })
				if evaluated == 0 {
					continue
				}
				seed, held = held[:evaluated], held[evaluated:]
			}
			for _, c := range cons {
				if c.detached || c.gf.None() {
					continue
				}
				c.Meter.Charge(sim.CtrColBlocks, 0, 1)
				if atServer {
					c.Meter.Charge(sim.CtrServerRows, prices.Eval, int64(evaluated))
				}
				c.walk(base, n, seed)
				if atServer && !c.local {
					sent := len(c.sel)
					if c.Filter.All() {
						sent = evaluated // no pushdown: every row goes to the client
					}
					c.Meter.Charge(sim.CtrRowsTransmitted, prices.Transmit, int64(sent))
				}
				blk.Group, blk.GroupIndex, blk.Base, blk.N, blk.Sel, blk.Buckets, blk.Tags = g, gi, base, n, c.sel, c.buckets, c.tw.rows
				if !c.Fn(blk) {
					c.detached = true
					attached--
				}
			}
		}
	}
	return nil
}
