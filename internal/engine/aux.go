package engine

import (
	"context"
	"slices"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// This file builds the §4.3.3 auxiliary structures, each from one qualifying
// scan of the server's columnar copy.

// captureScan is the aux builders' one qualifying scan, a scan inside the
// server like a statement's (accessPath.scan): the columnar copy's row groups
// in heap order, paying the cursor open, the pages of needCols (nil: every
// column), the block evaluation of its rows, and writeCost per row matching f
// (nothing for a keyset: capturing a TID writes no server row) — and
// transmitting nothing. keep receives each block's matches.
func (s *Server) captureScan(f predicate.Filter, needCols []int, spanName string, writeCost int64, keep func(blk *ColBlock)) {
	src := s.table.groups(needCols, s.meter.Costs())
	psp := s.Tracer().Start(obs.CatAux, spanName).SetPartition(0, 1)
	var kept int64
	c := &ScanConsumer{Filter: f, Lane: s.meter, local: true, Fn: func(blk *ColBlock) bool {
		keep(blk)
		kept += int64(len(blk.Sel))
		if writeCost > 0 {
			s.meter.Charge(sim.CtrServerRows, writeCost, int64(len(blk.Sel)))
		}
		return true
	}}
	ScanGroups(context.Background(), src, []*ScanConsumer{c}, 0, src.NumGroups(), s.meter) // resident groups: no read can fail
	psp.SetRows(kept).End()
}

// capture builds a TID structure under one build span: the qualifying scan
// reads the columns f tests and keeps, per row group, the matching rows'
// indices.
func (s *Server) capture(f predicate.Filter, buildSpan, partSpan string, writeCost int64, probe bool) *RowSet {
	sp := s.Tracer().Start(obs.CatAux, buildSpan).Attr("workers", 1)
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
	s.captureScan(f, need, partSpan, writeCost, func(blk *ColBlock) {
		rs.held[blk.GroupIndex] = append(rs.held[blk.GroupIndex], blk.Sel...)
	})
	sp.SetRows(int64(rs.Size())).End()
	return rs
}

// OpenKeyset runs the keyset's qualifying scan and captures the keyset.
func (s *Server) OpenKeyset(f predicate.Filter) *RowSet {
	return s.capture(f, "keyset-build", "keyset-partition", 0, false)
}

// CopyTIDs captures the TIDs of rows satisfying f into a server-side TID
// table: the qualifying scan plus one server row-write per TID captured (the
// copy into the TID table).
func (s *Server) CopyTIDs(f predicate.Filter) *RowSet {
	return s.capture(f, "tid-table-build", "tid-table-partition", s.meter.Costs().ServerRowWrite, true)
}

// CopySubset copies the rows satisfying f into a new server-side temp table
// (§4.3.3a) and returns a Server view over it: the qualifying scan over every
// column plus one server row-write per copied row, charged as the scan finds
// them. The scan collects the matching rows, and the temp table takes them in
// one bulk append afterwards, in the source's heap order.
func (s *Server) CopySubset(f predicate.Filter) (*Server, error) {
	t, err := s.eng.CreateTable(s.eng.tempName(), s.table.Cols)
	if err != nil {
		return nil, err
	}
	sp := s.Tracer().Start(obs.CatAux, "copy-subset").Attr("workers", 1)
	var rows []data.Row
	s.captureScan(f, nil, "copy-subset-partition", s.meter.Costs().ServerRowWrite, func(blk *ColBlock) {
		for _, i := range blk.Sel {
			row := make(data.Row, len(t.Cols))
			for c := range row {
				row[c] = blk.Group.Dict(c)[blk.Group.Codes(c)[i]]
			}
			rows = append(rows, row)
		}
	})
	if err := s.eng.BulkLoad(t, rows); err != nil {
		sp.End()
		return nil, err
	}
	sp.SetRows(t.NumRows()).End()
	return &Server{eng: s.eng, meter: s.meter, tracer: s.tracer, schema: s.schema, table: t}, nil
}
