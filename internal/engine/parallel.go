package engine

import (
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the engine side of the lane pipeline: lane-partitioned
// construction of the §4.3.3 auxiliary structures and the per-arm execution
// primitive the SQL fallback fans out over. Lanes read the immutable heap
// through their own heapReader, charge only their private lane meter, and
// record spans only on their private lane tracer, so every lane's outcome is
// a pure function of its partition and the folded result is bit-for-bit
// reproducible across GOMAXPROCS and goroutine interleavings.

// auxWorkers clamps a requested aux-build lane count to the table's page
// count (each lane needs at least one page), and to one lane at least.
func (s *Server) auxWorkers(n int) int {
	if np := s.table.NumPages(); np < n {
		n = np
	}
	if n < 2 {
		return 1
	}
	return n
}

// scanMatchLanes is the aux builders' one qualifying scan: the heap's pages
// split into nworkers ranges — histogram-weighted, each estimated match
// weighing writeCost, equal-width when hints are off — and every range
// scanned on its own lane, which pays its cursor open, its pages and rows,
// and writeCost per row matching f (nothing for a keyset: capturing a TID
// writes no server row). A lone lane is the server's own pooled stream, the
// lanes of a split read cold (Server.reader). keep receives each match with
// its lane's index and must store it in that lane's shard only; TIDs ascend
// within a range and ranges tile the heap in order, so shards concatenated in
// lane order equal the one-lane scan's output.
func (s *Server) scanMatchLanes(f predicate.Filter, nworkers int, spanName string, writeCost int64, keep func(part int, tid storage.TID, row data.Row)) {
	np := s.table.NumPages()
	bounds := s.PageBounds(f, nworkers, writeCost)
	obs.RunLanes(s.meter, s.Tracer(), nworkers, func(part int, lane *sim.Meter, ltr *obs.Tracer) {
		psp := ltr.Start(obs.CatAux, spanName).SetPartition(part, nworkers)
		lane.Charge(sim.CtrServerScans, lane.Costs().CursorOpen, 1)
		var kept int64
		lo, hi := RangeOf(part, nworkers, np, bounds)
		s.reader(lane).scan(lo, hi, func(tid storage.TID, row data.Row) bool {
			if f.Eval(row) {
				keep(part, tid, row)
				kept++
				if writeCost > 0 {
					lane.Charge(sim.CtrServerRows, writeCost, 1)
				}
			}
			return true
		})
		psp.SetRows(kept).End()
	})
}

// collectTIDs captures the TIDs of the rows matching f over nworkers lanes
// (clamped by auxWorkers), in heap order, under one build span.
func (s *Server) collectTIDs(f predicate.Filter, nworkers int, buildSpan, partSpan string, writeCost int64) tidSet {
	nworkers = s.auxWorkers(nworkers)
	sp := s.Tracer().Start(obs.CatAux, buildSpan).Attr("workers", int64(nworkers))
	shards := make([][]storage.TID, nworkers)
	s.scanMatchLanes(f, nworkers, partSpan, writeCost, func(part int, tid storage.TID, _ data.Row) {
		shards[part] = append(shards[part], tid)
	})
	tids := shards[0]
	for _, sh := range shards[1:] {
		tids = append(tids, sh...)
	}
	sp.SetRows(int64(len(tids))).End()
	return tidSet{s: s, tids: tids}
}

// OpenKeyset runs the keyset's qualifying scan over nworkers page-range
// lanes (see scanMatchLanes) and captures the keyset, identical for every
// lane count. The scan charges full sequential-scan costs but transmits
// nothing.
func (s *Server) OpenKeyset(f predicate.Filter, nworkers int) *Keyset {
	return &Keyset{s.collectTIDs(f, nworkers, "keyset-build", "keyset-partition", 0)}
}

// CopyTIDs captures the TIDs of rows satisfying f into a server-side TID
// table: one qualifying scan over nworkers lanes plus one server row-write
// per TID captured (the copy into the TID table), charged on the capturing
// lane; weighting the split by that cost keeps a lane over the matching
// region from straggling behind lanes copying nothing.
func (s *Server) CopyTIDs(f predicate.Filter, nworkers int) *TIDTable {
	return &TIDTable{s.collectTIDs(f, nworkers, "tid-table-build", "tid-table-partition", s.meter.Costs().ServerRowWrite)}
}

// CopySubset copies the rows satisfying f into a new server-side temp table
// (§4.3.3a) and returns a Server view over it: a full scan over nworkers
// lanes plus one server row-write per copied row. Lanes collect matching
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
	r := s.reader(nil)
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
