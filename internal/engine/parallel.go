package engine

import (
	"slices"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the engine side of the lane pipeline: lane-partitioned
// construction of the §4.3.3 auxiliary structures and the per-arm execution
// primitive the SQL fallback fans out over. Lanes read immutable row groups or
// the immutable heap, charge only their private lane meter, and record spans
// only on their private lane tracer, so every lane's outcome is a pure function
// of its partition and the folded result is bit-for-bit reproducible across
// GOMAXPROCS and goroutine interleavings.

// auxWorkers clamps a requested aux-build lane count to the table's row-group
// count (each lane needs at least one group), and to one lane at least.
func (s *Server) auxWorkers(n int) int {
	return max(min(n, s.table.colstore.NumGroups()), 1)
}

// captureLanes is the aux builders' one qualifying scan, a scan inside the
// server like a statement's (accessPath.scan): the columnar copy's row groups
// split into nworkers ranges by the one group-weight rule (GroupBounds, each
// estimated match weighing writeCost; equal-width when hints are off), every
// range scanned on its own lane, which pays its cursor open, the pages of
// needCols (nil: every column), the block evaluation of its rows, and writeCost
// per row matching f (nothing for a keyset: capturing a TID writes no server
// row) — and transmits nothing. keep receives each block's matches with its
// lane's index and must store them by lane or by group only; ranges tile the
// copy in heap order, so what the lanes keep, taken in lane order, is the
// one-lane scan's output.
func (s *Server) captureLanes(f predicate.Filter, nworkers int, needCols []int, spanName string, writeCost int64, keep func(part int, blk *ColBlock)) {
	src := s.table.groups(needCols, s.meter.Costs())
	var bounds []int
	if !s.noHints {
		bounds = GroupBounds(src, f, nworkers, s.meter.Costs(), writeCost)
	}
	obs.RunLanes(s.meter, s.Tracer(), nworkers, func(part int, lane *sim.Meter, ltr *obs.Tracer) {
		psp := ltr.Start(obs.CatAux, spanName).SetPartition(part, nworkers)
		var kept int64
		c := &ScanConsumer{Filter: f, Lane: lane, local: true, Fn: func(blk *ColBlock) bool {
			keep(part, blk)
			kept += int64(len(blk.Sel))
			if writeCost > 0 {
				lane.Charge(sim.CtrServerRows, writeCost, int64(len(blk.Sel)))
			}
			return true
		}}
		lo, hi := RangeOf(part, nworkers, src.NumGroups(), bounds)
		ScanGroups(src, []*ScanConsumer{c}, lo, hi, lane) // resident groups: no read can fail
		psp.SetRows(kept).End()
	})
}

// capture builds a TID structure under one build span: the qualifying scan
// reads the columns f tests and keeps, per row group, the matching rows'
// indices — each group is scanned by exactly one lane, so the lanes fill
// disjoint entries.
func (s *Server) capture(f predicate.Filter, nworkers int, buildSpan, partSpan string, writeCost int64, probe bool) *RowSet {
	nworkers = s.auxWorkers(nworkers)
	sp := s.Tracer().Start(obs.CatAux, buildSpan).Attr("workers", int64(nworkers))
	need := []int{}
	for c := range s.table.Cols {
		for _, cj := range f.Conjs() {
			if slices.ContainsFunc(cj, func(cond predicate.Cond) bool { return cond.Attr == c }) {
				need = append(need, c)
				break
			}
		}
	}
	costs := s.meter.Costs()
	rs := &RowSet{tableGroups: s.table.groups(nil, costs), costs: costs, held: make([][]int32, s.table.colstore.NumGroups()), probe: probe}
	s.captureLanes(f, nworkers, need, partSpan, writeCost, func(_ int, blk *ColBlock) {
		rs.held[blk.GroupIndex] = append(rs.held[blk.GroupIndex], blk.Sel...)
	})
	sp.SetRows(int64(rs.Size())).End()
	return rs
}

// OpenKeyset runs the keyset's qualifying scan over nworkers lanes (clamped by
// auxWorkers; see captureLanes) and captures the keyset, identical for every
// lane count.
func (s *Server) OpenKeyset(f predicate.Filter, nworkers int) *RowSet {
	return s.capture(f, nworkers, "keyset-build", "keyset-partition", 0, false)
}

// CopyTIDs captures the TIDs of rows satisfying f into a server-side TID
// table: the qualifying scan plus one server row-write per TID captured (the
// copy into the TID table), charged on the capturing lane; weighting the split
// by that cost keeps a lane over the matching region from straggling behind
// lanes copying nothing.
func (s *Server) CopyTIDs(f predicate.Filter, nworkers int) *RowSet {
	return s.capture(f, nworkers, "tid-table-build", "tid-table-partition", s.meter.Costs().ServerRowWrite, true)
}

// CopySubset copies the rows satisfying f into a new server-side temp table
// (§4.3.3a) and returns a Server view over it: the qualifying scan over every
// column plus one server row-write per copied row. Lanes collect matching
// rows into private buffers, charging the row-write on their lane; after the
// barrier the coordinator appends the buffers to the temp table in partition
// order (the physical bulk append — its costs were already charged in the
// lanes), so the temp table's heap order is the source's for every lane
// count.
func (s *Server) CopySubset(f predicate.Filter, nworkers int) (*Server, error) {
	nworkers = s.auxWorkers(nworkers)
	t, err := s.eng.CreateTable(s.eng.tempName(), s.table.Cols)
	if err != nil {
		return nil, err
	}
	t.temp = true
	sp := s.Tracer().Start(obs.CatAux, "copy-subset").Attr("workers", int64(nworkers))
	shards := make([][]data.Row, nworkers)
	s.captureLanes(f, nworkers, nil, "copy-subset-partition", s.meter.Costs().ServerRowWrite, func(part int, blk *ColBlock) {
		for _, i := range blk.Sel {
			row := make(data.Row, len(t.Cols))
			for c := range row {
				row[c] = blk.Group.Dict(c)[blk.Group.Codes(c)[i]]
			}
			shards[part] = append(shards[part], row)
		}
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

// WarmTable reports whether arm scans of the table run against a resident
// buffer pool, faulting the table in if needed. When the table fits the
// pool, one sequential prefetch by the server's own pooled reader makes every
// page resident — the same pages, charges and LRU state a serial statement's
// first scan would produce, and pages already resident from earlier
// statements cost nothing. When the table exceeds the pool a sequential
// scan floods the LRU and every later scan re-pays full disk I/O (the
// paper's target regime), so there is nothing to warm and arm scans must
// model cold reads like the serial UNION's arms do.
func (s *Server) WarmTable() bool {
	np := s.table.NumPages()
	if np > s.eng.bp.Capacity() {
		return false
	}
	r := s.reader()
	for p := 0; p < np; p++ {
		r.page(storage.PageID(p))
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
// charged. Arms never touch the pool itself, whatever their number.
func (s *Server) CountsArmScan(f predicate.Filter, lane *sim.Meter, warm bool, fn func(data.Row)) {
	r := heapReader{t: s.table, meter: lane, mode: payCold}
	if warm {
		r.mode = payResident
	}
	aggRow := lane.Costs().SQLAggRow
	r.scanAll(func(_ storage.TID, row data.Row) bool {
		if f.Eval(row) {
			lane.Charge(sim.CtrSQLAggRows, aggRow, 1)
			fn(row)
		}
		return true
	})
}
