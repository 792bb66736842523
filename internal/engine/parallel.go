package engine

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the engine side of the multi-worker pipeline: partitioned
// construction of the §4.3.3 auxiliary structures, partitioned cursors over
// keysets and TID tables, and the per-arm execution primitive the parallel
// SQL fallback fans out over. The determinism rules match OpenScanRange:
// workers read the immutable heap directly (never the shared LRU buffer
// pool), charge only their private lane meter, and record spans only on
// their private lane tracer, so every lane's outcome is a pure function of
// its partition and the folded result is bit-for-bit reproducible across
// GOMAXPROCS and goroutine interleavings.

// scanHeapRange drives the heap pages [lo, hi) through fn under the
// cold-scan cost model: one ServerPageIO per page holding records,
// ServerRowCPU per decoded row, all charged to lane. The aux builders feed
// it boundaries from PageBounds (weighted) or the equal-width formula.
func (s *Server) scanHeapRange(loPage, hiPage int, lane *sim.Meter, fn func(tid storage.TID, row data.Row)) {
	h := s.table.heap
	ncols := len(s.table.Cols)
	costs := lane.Costs()
	lo := storage.PageID(loPage)
	hi := storage.PageID(hiPage)
	var row data.Row
	for p := lo; p < hi; p++ {
		for slot := uint16(0); ; slot++ {
			rec, ok := heapRecord(h, p, slot)
			if !ok {
				break
			}
			if slot == 0 {
				lane.Charge(sim.CtrServerPages, costs.ServerPageIO, 1)
			}
			row = data.DecodeRow(rec, ncols, row)
			lane.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
			fn(storage.TID{Page: p, Slot: slot}, row)
		}
	}
}

// auxWorkers clamps a requested aux-build worker count to the table's page
// count (each worker needs at least one page) and collapses to the serial
// path below two.
func (s *Server) auxWorkers(n int) int {
	if np := s.table.NumPages(); np < n {
		n = np
	}
	if n < 2 {
		return 1
	}
	return n
}

// scanMatchLanes is the aux builders' one partitioned qualifying scan: the
// heap's pages split into nworkers ranges — histogram-weighted, each
// estimated match weighing writeCost, equal-width when hints are off — and
// every range scanned cold on its own lane, which pays its cursor open, its
// pages and rows, and writeCost per row matching f (nothing for a keyset:
// capturing a TID writes no server row). keep receives each match with its
// lane's index and must store it in that lane's shard only; TIDs ascend
// within a range and ranges tile the heap in order, so shards concatenated in
// lane order equal the sequential scan's output.
func (s *Server) scanMatchLanes(f predicate.Filter, nworkers int, spanName string, writeCost int64, keep func(part int, tid storage.TID, row data.Row)) {
	np := s.table.NumPages()
	bounds := s.PageBounds(f, nworkers, writeCost)
	obs.RunLanes(s.meter, s.Tracer(), nworkers, func(part int, lane *sim.Meter, ltr *obs.Tracer) {
		psp := ltr.Start(obs.CatAux, spanName).SetPartition(part, nworkers)
		lane.Charge(sim.CtrServerScans, lane.Costs().CursorOpen, 1)
		var kept int64
		lo, hi := rangeOf(part, nworkers, np, bounds)
		s.scanHeapRange(lo, hi, lane, func(tid storage.TID, row data.Row) {
			if !f.Eval(row) {
				return
			}
			keep(part, tid, row)
			kept++
			if writeCost > 0 {
				lane.Charge(sim.CtrServerRows, writeCost, 1)
			}
		})
		psp.SetRows(kept).End()
	})
}

// collectTIDs captures the TIDs of the rows matching f over nworkers lanes,
// in heap order, under one build span.
func (s *Server) collectTIDs(f predicate.Filter, nworkers int, buildSpan, partSpan string, writeCost int64) []storage.TID {
	sp := s.Tracer().Start(obs.CatAux, buildSpan).Attr("workers", int64(nworkers))
	shards := make([][]storage.TID, nworkers)
	s.scanMatchLanes(f, nworkers, partSpan, writeCost, func(part int, tid storage.TID, _ data.Row) {
		shards[part] = append(shards[part], tid)
	})
	var tids []storage.TID
	for _, sh := range shards {
		tids = append(tids, sh...)
	}
	sp.SetRows(int64(len(tids))).End()
	return tids
}

// OpenKeysetParallel is OpenKeyset with the qualifying scan partitioned over
// nworkers page ranges (see scanMatchLanes), so the combined keyset is
// identical to the sequential scan's. nworkers <= 1 (or a table too small to
// split) delegates to the serial builder.
func (s *Server) OpenKeysetParallel(f predicate.Filter, nworkers int) *Keyset {
	if nworkers = s.auxWorkers(nworkers); nworkers < 2 {
		return s.OpenKeyset(f)
	}
	return &Keyset{s: s, tids: s.collectTIDs(f, nworkers, "keyset-build", "keyset-partition", 0)}
}

// CopyTIDsParallel is CopyTIDs with the qualifying scan partitioned over
// nworkers page ranges. Each worker charges one server row-write per TID it
// captures (the copy into the server-side TID table), exactly as the serial
// builder does; weighting the split by that cost keeps a worker over the
// matching region from straggling behind workers copying nothing.
func (s *Server) CopyTIDsParallel(f predicate.Filter, nworkers int) *TIDTable {
	if nworkers = s.auxWorkers(nworkers); nworkers < 2 {
		return s.CopyTIDs(f)
	}
	return &TIDTable{s: s, tids: s.collectTIDs(f, nworkers, "tid-table-build", "tid-table-partition", s.meter.Costs().ServerRowWrite)}
}

// CopySubsetParallel is CopySubset with the qualifying scan partitioned over
// nworkers page ranges. Workers collect matching rows into private buffers,
// charging one server row-write per copied row on their lane; after the
// barrier the coordinator appends the buffers to the temp table in partition
// order (the physical bulk append — its costs were already charged in the
// lanes), so the temp table's heap order equals the sequential copy's.
func (s *Server) CopySubsetParallel(f predicate.Filter, nworkers int) (*Server, error) {
	if nworkers = s.auxWorkers(nworkers); nworkers < 2 {
		return s.CopySubset(f)
	}
	t, err := s.eng.CreateTable(s.eng.tempName(), s.table.Cols)
	if err != nil {
		return nil, err
	}
	t.temp = true
	sp := s.Tracer().Start(obs.CatAux, "copy-subset").Attr("workers", int64(nworkers))
	shards := make([][]data.Row, nworkers)
	s.scanMatchLanes(f, nworkers, "copy-subset-partition", s.meter.Costs().ServerRowWrite, func(part int, _ storage.TID, row data.Row) {
		shards[part] = append(shards[part], row.Clone())
	})
	for _, sh := range shards {
		if err := s.eng.BulkLoad(t, sh); err != nil {
			sp.End()
			return nil, err
		}
	}
	sp.SetRows(t.NumRows()).End()
	return &Server{eng: s.eng, meter: s.meter, tracer: s.tracer, schema: s.schema, table: t, noHints: s.noHints}, nil
}

// OpenScanRange re-scans the keyset's TIDs [lo, hi), in capture order,
// charging all costs to lane; the bounds typically come from ScanBounds, and
// empty ranges are valid. Like the heap range cursors, fetches bypass the
// shared buffer pool (its LRU state would make accounting depend on lane
// interleaving) and charge the amortized random-I/O TIDFetch cost per record
// against the immutable heap.
func (k *Keyset) OpenScanRange(sproc *predicate.Filter, lo, hi int, lane *sim.Meter) Cursor {
	if lo < 0 || hi < lo || hi > len(k.tids) {
		panic(fmt.Sprintf("engine: invalid keyset range [%d, %d) of %d TIDs", lo, hi, len(k.tids)))
	}
	if lane == nil {
		lane = k.s.meter
	}
	lane.Charge(sim.CtrServerScans, lane.Costs().CursorOpen, 1)
	return &keysetPartCursor{k: k, sproc: sproc, lane: lane, i: lo, end: hi}
}

// ScanBounds returns histogram-guided TID boundaries splitting a keyset
// re-scan into nparts lanes of approximately equal estimated cost. Every TID
// pays the fetch (plus sproc CPU); the transmit-and-process cost — RowTransmit
// plus the caller's perMatch — is scaled by the match density of the TID's
// home page under the sproc filter, from the same per-page statistics that
// guide heap scans. Nil when hints are disabled or the keyset is empty.
func (k *Keyset) ScanBounds(sproc *predicate.Filter, nparts int, perMatch int64) []int {
	s := k.s
	if s.noHints || nparts < 2 || len(k.tids) == 0 {
		return nil
	}
	costs := s.meter.Costs()
	base := costs.TIDFetch
	var hints []PageHint
	if sproc != nil {
		base += costs.ServerRowCPU
		hints = s.table.PartitionHints(*sproc)
	}
	per := costs.RowTransmit + perMatch
	weights := make([]int64, len(k.tids))
	for i, tid := range k.tids {
		w := base
		if hints == nil {
			// No sproc: every keyset row is transmitted.
			w += per
		} else if h := hints[tid.Page]; h.Rows > 0 {
			w += per * h.Match / h.Rows
		}
		weights[i] = w
	}
	return WeightedBounds(weights, nparts)
}

// keysetPartCursor is a keysetCursor restricted to a TID range, charging a
// dedicated lane meter and fetching records straight from the heap.
type keysetPartCursor struct {
	k      *Keyset
	sproc  *predicate.Filter
	lane   *sim.Meter
	i, end int
	row    data.Row
	closed bool
}

func (c *keysetPartCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	s := c.k.s
	h := s.table.heap
	ncols := len(s.table.Cols)
	costs := c.lane.Costs()
	for c.i < c.end {
		tid := c.k.tids[c.i]
		c.i++
		rec, ok := heapRecord(h, tid.Page, tid.Slot)
		if !ok {
			panic(fmt.Sprintf("engine: keyset partition fetch: no record at %v", tid))
		}
		c.lane.Charge(sim.CtrTIDFetches, costs.TIDFetch, 1)
		c.row = data.DecodeRow(rec, ncols, c.row)
		if c.sproc != nil {
			c.lane.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
			if !c.sproc.Eval(c.row) {
				continue
			}
		}
		c.lane.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
		return c.row, true
	}
	return nil, false
}

func (c *keysetPartCursor) Close() { c.closed = true }

// OpenJoinRange retrieves the TID table's entries [lo, hi), in capture
// order, via a TID join, applying filter server-side and charging all costs
// to lane; the bounds typically come from JoinBounds, and empty ranges are
// valid. Fetches use the same pool-bypassing model as Keyset.OpenScanRange.
func (t *TIDTable) OpenJoinRange(filter predicate.Filter, lo, hi int, lane *sim.Meter) Cursor {
	if lo < 0 || hi < lo || hi > len(t.tids) {
		panic(fmt.Sprintf("engine: invalid TID-join range [%d, %d) of %d TIDs", lo, hi, len(t.tids)))
	}
	if lane == nil {
		lane = t.s.meter
	}
	lane.Charge(sim.CtrServerScans, lane.Costs().CursorOpen, 1)
	return &tidJoinPartCursor{t: t, filter: filter, lane: lane, i: lo, end: hi}
}

// JoinBounds returns histogram-guided TID boundaries splitting a TID join
// into nparts lanes of approximately equal estimated cost: every TID pays
// probe + fetch + row CPU, and the transmit-and-process cost (RowTransmit +
// perMatch) is scaled by the match density of the TID's home page under
// filter. Nil when hints are disabled or the table is empty.
func (t *TIDTable) JoinBounds(filter predicate.Filter, nparts int, perMatch int64) []int {
	s := t.s
	if s.noHints || nparts < 2 || len(t.tids) == 0 {
		return nil
	}
	costs := s.meter.Costs()
	base := costs.IndexProbe + costs.TIDFetch + costs.ServerRowCPU
	hints := s.table.PartitionHints(filter)
	per := costs.RowTransmit + perMatch
	weights := make([]int64, len(t.tids))
	for i, tid := range t.tids {
		w := base
		if hints == nil {
			w += per
		} else if h := hints[tid.Page]; h.Rows > 0 {
			w += per * h.Match / h.Rows
		}
		weights[i] = w
	}
	return WeightedBounds(weights, nparts)
}

// tidJoinPartCursor is a tidJoinCursor restricted to a TID range, charging a
// dedicated lane meter and fetching records straight from the heap.
type tidJoinPartCursor struct {
	t      *TIDTable
	filter predicate.Filter
	lane   *sim.Meter
	i, end int
	row    data.Row
	closed bool
}

func (c *tidJoinPartCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	s := c.t.s
	h := s.table.heap
	ncols := len(s.table.Cols)
	costs := c.lane.Costs()
	for c.i < c.end {
		tid := c.t.tids[c.i]
		c.i++
		c.lane.Charge(sim.CtrIndexProbes, costs.IndexProbe, 1)
		rec, ok := heapRecord(h, tid.Page, tid.Slot)
		if !ok {
			panic(fmt.Sprintf("engine: TID-join partition fetch: no record at %v", tid))
		}
		c.lane.Charge(sim.CtrTIDFetches, costs.TIDFetch, 1)
		c.row = data.DecodeRow(rec, ncols, c.row)
		c.lane.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
		if !c.filter.Eval(c.row) {
			continue
		}
		c.lane.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
		return c.row, true
	}
	return nil, false
}

func (c *tidJoinPartCursor) Close() { c.closed = true }

// WarmTable reports whether arm scans of the table run against a resident
// buffer pool, faulting the table in if needed. When the table fits the
// pool, one sequential prefetch on the server meter makes every page
// resident — the same pages, charges and LRU state a serial statement's
// first scan would produce, and pages already resident from earlier
// statements cost nothing. When the table exceeds the pool a sequential
// scan floods the LRU and every later scan re-pays full disk I/O (the
// paper's target regime), so there is nothing to warm and arm scans must
// model cold reads like the serial UNION's arms do.
func (s *Server) WarmTable() bool {
	h := s.table.heap
	np := h.NumPages()
	if np > s.eng.bp.Capacity() {
		return false
	}
	for p := 0; p < np; p++ {
		s.eng.bp.TouchForScan(h, storage.PageID(p))
	}
	return true
}

// CountsArmScan executes one GROUP BY arm of a §2.3 counts query on a
// private lane: a full scan evaluating the pushed-down path filter and one
// aggregation step per qualifying row, which is handed to fn. The caller
// maintains the groups (the arm's counts shard), charges RowTransmit per
// resulting group row, and charges the per-statement QueryStartup once per
// request on its own meter — the middleware still issues one UNION statement
// per request; the server merely executes its arms on parallel CPUs
// (intra-query parallelism), so no per-arm startup exists.
//
// The engine's serial UNION execution performs one scan per arm too (the
// optimizer does not share scans across arms), through the shared buffer
// pool. warm — typically the result of a parent-side WarmTable call — says
// whether the pool holds the whole table: warm arms read resident pages for
// free, exactly like serial arms of a pool-resident table, while cold arms
// (table larger than the pool, where every serial scan re-faults each page)
// pay ServerPageIO per page. Row CPU and aggregation costs are always
// charged. Lanes never touch the pool itself, so concurrent arm scans stay
// race-free and deterministic.
func (s *Server) CountsArmScan(f predicate.Filter, lane *sim.Meter, warm bool, fn func(data.Row)) {
	if lane == nil {
		lane = s.meter
	}
	costs := lane.Costs()
	h := s.table.heap
	ncols := len(s.table.Cols)
	np := h.NumPages()
	var row data.Row
	for p := storage.PageID(0); p < storage.PageID(np); p++ {
		for slot := uint16(0); ; slot++ {
			rec, ok := heapRecord(h, p, slot)
			if !ok {
				break
			}
			if slot == 0 && !warm {
				lane.Charge(sim.CtrServerPages, costs.ServerPageIO, 1)
			}
			row = data.DecodeRow(rec, ncols, row)
			lane.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
			if f.Eval(row) {
				lane.Charge(sim.CtrSQLAggRows, costs.SQLAggRow, 1)
				fn(row)
			}
		}
	}
}
