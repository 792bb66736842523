package engine

import (
	"context"
	"errors"
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
// transmitting nothing. keep receives each block's matches. The scan checks
// ctx before every block and returns ctx.Err() once it is done; resident
// groups leave it no other error.
func (s *Server) captureScan(ctx context.Context, f predicate.Filter, needCols []int, writeCost int64, keep func(blk *ColBlock)) error {
	src := s.table.groups(needCols, s.meter.Costs())
	c := &ScanConsumer{Filter: f, Meter: s.meter, local: true, Fn: func(blk *ColBlock) bool {
		keep(blk)
		if writeCost > 0 {
			s.meter.Charge(sim.CtrServerRows, writeCost, int64(len(blk.Sel)))
		}
		return true
	}}
	return ScanGroups(ctx, src, []*ScanConsumer{c}, 0, src.NumGroups(), s.meter)
}

// capture builds a TID structure under one build span: the qualifying scan
// reads the columns f tests and keeps, per row group, the matching rows'
// indices. A cancelled scan ends the span and returns no structure.
func (s *Server) capture(ctx context.Context, f predicate.Filter, buildSpan string, writeCost int64, probe bool) (*RowSet, error) {
	sp := s.Tracer().Start(obs.CatAux, buildSpan)
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
	err := s.captureScan(ctx, f, need, writeCost, func(blk *ColBlock) {
		rs.held[blk.GroupIndex] = append(rs.held[blk.GroupIndex], blk.Sel...)
	})
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetRows(int64(rs.Size())).End()
	return rs, nil
}

// OpenKeyset runs the keyset's qualifying scan and captures the keyset.
func (s *Server) OpenKeyset(ctx context.Context, f predicate.Filter) (*RowSet, error) {
	return s.capture(ctx, f, "keyset-build", 0, false)
}

// CopyTIDs captures the TIDs of rows satisfying f into a server-side TID
// table: the qualifying scan plus one server row-write per TID captured (the
// copy into the TID table).
func (s *Server) CopyTIDs(ctx context.Context, f predicate.Filter) (*RowSet, error) {
	return s.capture(ctx, f, "tid-table-build", s.meter.Costs().ServerRowWrite, true)
}

// CopySubset copies the rows satisfying f into a new server-side temp table
// (§4.3.3a) and returns a Server view over it: the qualifying scan over every
// column plus one server row-write per copied row, charged as the scan finds
// them. The scan collects the matching rows, and the temp table takes them in
// one bulk append afterwards, in the source's heap order. On error — ctx.Err()
// from a cancelled scan included — the temp table is dropped again.
func (s *Server) CopySubset(ctx context.Context, f predicate.Filter) (*Server, error) {
	t, err := s.eng.CreateTable(s.eng.tempName(), s.table.Cols)
	if err != nil {
		return nil, err
	}
	sp := s.Tracer().Start(obs.CatAux, "copy-subset")
	var rows []data.Row
	err = s.captureScan(ctx, f, nil, s.meter.Costs().ServerRowWrite, func(blk *ColBlock) {
		for _, i := range blk.Sel {
			row := make(data.Row, len(t.Cols))
			for c := range row {
				row[c] = blk.Group.Dict(c)[blk.Group.Codes(c)[i]]
			}
			rows = append(rows, row)
		}
	})
	if err == nil {
		err = s.eng.BulkLoad(t, rows)
	}
	if err != nil {
		sp.End()
		if derr := s.eng.DropTable(t.Name); derr != nil {
			return nil, errors.Join(err, derr)
		}
		return nil, err
	}
	sp.SetRows(t.NumRows()).End()
	return &Server{eng: s.eng, meter: s.meter, tracer: s.tracer, schema: s.schema, table: t}, nil
}
