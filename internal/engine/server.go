package engine

import (
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Server is the OLE-DB-like surface the paper's middleware consumes: a SQL
// engine plus cursor-based data access against one classification table. It
// keeps the data.Schema alongside the engine table so that predicates
// expressed over attribute indices can be pushed down.
type Server struct {
	eng     *Engine
	meter   *sim.Meter
	tracer  *obs.Tracer // per-view override; nil inherits the engine tracer
	schema  *data.Schema
	table   *Table
	noHints bool // disable statistics-guided splits (ablation)
}

// NewServer creates a server around an engine and loads the dataset into a
// table with the given name (bulk load, unmetered).
func NewServer(eng *Engine, name string, ds *data.Dataset) (*Server, error) {
	cols := make([]string, ds.Schema.NumCols())
	for i := range cols {
		cols[i] = ds.Schema.ColName(i)
	}
	t, err := eng.CreateTable(name, cols)
	if err != nil {
		return nil, err
	}
	if err := eng.BulkLoad(t, ds.Rows); err != nil {
		return nil, err
	}
	return &Server{eng: eng, meter: eng.Meter(), schema: ds.Schema, table: t}, nil
}

// Engine returns the underlying SQL engine (for SQL-based baselines).
func (s *Server) Engine() *Engine { return s.eng }

// SetSplitHints toggles the engine's own use of row-group statistics: the
// weighted lane split of the aux builders' qualifying scan. Hints are enabled
// by default; disabling them restores equal-width splits, the ablation arm of
// the skew experiment. Derived servers (CopySubset) inherit the setting.
func (s *Server) SetSplitHints(on bool) { s.noHints = !on }

// Meter returns the server's meter.
func (s *Server) Meter() *sim.Meter { return s.meter }

// Tracer returns the observability tracer every server-side span is opened
// on: the view's own tracer when set, the engine's otherwise (nil when
// disabled).
func (s *Server) Tracer() *obs.Tracer {
	if s.tracer != nil {
		return s.tracer
	}
	return s.eng.tracer
}

// View returns a session-scoped view of the server: same engine and table,
// but every cursor cost is charged to the given meter and every span opened
// on the given tracer. Views are how the multi-tenant scheduler gives each
// concurrent build its own virtual clock and trace over one shared engine;
// a nil tracer inherits the engine's. The view copies the split-hint flag,
// so SetSplitHints on a view never leaks to other sessions.
func (s *Server) View(meter *sim.Meter, tracer *obs.Tracer) *Server {
	if meter == nil {
		meter = s.meter
	}
	return &Server{eng: s.eng, meter: meter, tracer: tracer, schema: s.schema, table: s.table, noHints: s.noHints}
}

// Schema returns the classification schema of the data table.
func (s *Server) Schema() *data.Schema { return s.schema }

// TableName returns the name of the data table.
func (s *Server) TableName() string { return s.table.Name }

// NumRows returns the number of rows in the data table.
func (s *Server) NumRows() int64 { return s.table.NumRows() }

// NumPages returns the number of heap pages backing the data table.
func (s *Server) NumPages() int { return s.table.NumPages() }

// DataBytes returns the on-disk size of the data table as a heap: its pages
// times PageSize.
func (s *Server) DataBytes() int64 { return s.table.Bytes() }

// Drop removes the server's table (used to free temp tables).
func (s *Server) Drop() error { return s.eng.DropTable(s.table.Name) }

// Cursor streams rows from the server to the middleware. Next returns the
// next row (valid until the following call) and whether one was produced.
type Cursor interface {
	Next() (data.Row, bool)
	Close()
}

// scanCursor is a firehose cursor over the data table's heap with a pushed-down
// filter: the server evaluates the filter on every row (charging server CPU
// and, through its pooled reader, page I/O) and transmits only matching rows
// (charging RowTransmit each), exactly the §4.3.1 "reducing data transmitted
// from the server" mechanism. It is the row-at-a-time stream of the §2.3
// extract-everything strawman; the middleware's batches read row groups
// (ScanGroups).
type scanCursor struct {
	walk   *heapWalk
	filter predicate.Filter
	closed bool
	sp     *obs.Span
	rows   int64
}

// OpenScan initiates a cursor scan of the whole data table on the server's
// own meter with the filter pushed down, charging the cursor-open cost.
func (s *Server) OpenScan(f predicate.Filter) Cursor {
	r := s.reader()
	r.meter.Charge(sim.CtrServerScans, r.meter.Costs().CursorOpen, 1)
	return &scanCursor{walk: r.walk(), filter: f, sp: s.Tracer().Start(obs.CatCursor, "server-scan")}
}

// finish closes the cursor span once, recording the rows transmitted.
func (c *scanCursor) finish() {
	if c.sp != nil {
		c.sp.SetRows(c.rows).End()
		c.sp = nil
	}
}

// Close ends the cursor; further Next calls produce nothing.
func (c *scanCursor) Close() {
	c.closed = true
	c.finish()
}

func (c *scanCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	meter := c.walk.r.meter
	for {
		row, ok := c.walk.Next()
		if !ok {
			c.finish()
			return nil, false
		}
		if c.filter.Eval(row) {
			meter.Charge(sim.CtrRowsTransmitted, meter.Costs().RowTransmit, 1)
			c.rows++
			return row, true
		}
	}
}

// RowSet is a pre-selected row set over the data table — the body of both
// §4.3.3 TID structures, a keyset cursor (c) and a TID table (b): the rows
// satisfying a predicate, captured by one qualifying scan (Server.OpenKeyset,
// Server.CopyTIDs). The columnar copy is in heap order and tables only grow at
// the end, so the set is kept as what it is over that copy — per row group, the
// group-relative indices of the captured rows, ascending — and re-scanned as a
// GroupSource whose groups carry that selection. What a re-scan pays is the
// row-at-a-time access the structures stand for, never a block price: per
// captured row of a group it reads, the fetch by TID (for a TID table, the join's
// index probe first); per consumer, the stored-procedure filter on every captured
// row (ServerRowCPU) and the transmission of each row that passes (RowTransmit).
type RowSet struct {
	tableGroups // the table's copy, every column: a fetched row is whole
	costs       sim.Costs
	held        [][]int32 // per row group at capture time
	probe       bool      // a TID table: each fetch is reached through a join probe
}

// Size returns the number of rows captured.
func (rs *RowSet) Size() int {
	n := 0
	for _, h := range rs.held {
		n += len(h)
	}
	return n
}

func (rs *RowSet) NumGroups() int             { return len(rs.held) }
func (rs *RowSet) Sel(gi int) ([]int32, bool) { return rs.held[gi], true }
func (rs *RowSet) AtServer() (RowPrices, bool) {
	return RowPrices{rs.costs.ServerRowCPU, rs.costs.RowTransmit}, true
}
func (rs *RowSet) ChargeRead(gi int, m *sim.Meter) {
	n := int64(len(rs.held[gi]))
	if rs.probe {
		m.Charge(sim.CtrIndexProbes, rs.costs.IndexProbe, n)
	}
	m.Charge(sim.CtrTIDFetches, rs.costs.TIDFetch, n)
}
