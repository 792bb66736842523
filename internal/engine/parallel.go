package engine

import (
	"slices"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// This file is the engine side of the lane pipeline: lane-partitioned
// construction of the §4.3.3 auxiliary structures. Lanes read immutable row
// groups, charge only their private lane meter, and record spans only on their
// private lane tracer, so every lane's outcome is a pure function of its
// partition and the folded result is bit-for-bit reproducible across
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
