package engine

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
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
	noHints bool // disable histogram-guided partition bounds (ablation)
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

// SetSplitHints toggles histogram-guided partition bounds (PageBounds,
// ScanBounds, JoinBounds and the weighted aux builders). Hints are enabled
// by default; disabling them restores equal-width splits everywhere, the
// ablation arm of the skew experiment. Derived servers (CopySubset) inherit
// the setting.
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

// NumPages returns the number of heap pages backing the data table — the
// unit the partitioned scan divides between workers.
func (s *Server) NumPages() int { return s.table.NumPages() }

// DataBytes returns the on-disk size of the data table.
func (s *Server) DataBytes() int64 { return s.table.Bytes() }

// Drop removes the server's table (used to free temp tables).
func (s *Server) Drop() error { return s.eng.DropTable(s.table.Name) }

// Cursor streams rows from the server to the middleware. Next returns the
// next row (valid until the following call) and whether one was produced.
type Cursor interface {
	Next() (data.Row, bool)
	Close()
}

// cursorEnd is the bookkeeping every row cursor shares: the closed flag, the
// rows transmitted, and the cursor span the server's own stream records them
// on (nil for a lane, whose lane span already covers the scan).
type cursorEnd struct {
	closed bool
	sp     *obs.Span
	rows   int64
}

// finish closes the cursor span once, recording the rows transmitted.
func (c *cursorEnd) finish() {
	if c.sp != nil {
		c.sp.SetRows(c.rows).End()
		c.sp = nil
	}
}

// Close ends the cursor; further Next calls produce nothing.
func (c *cursorEnd) Close() {
	c.closed = true
	c.finish()
}

// openCursor starts one cursor stream over units [lo, hi) of n (heap pages
// or captured TIDs): it picks the stream's reader from lane (Server.reader),
// charges the cursor open to the reader's meter and, for the server's own
// stream, opens the cursor span. Every lane opens its own cursor, so the
// open is paid once per range; empty ranges are valid (an empty lane of a
// skewed split) and yield no rows.
func (s *Server) openCursor(span string, lo, hi, n int, lane *sim.Meter) (heapReader, cursorEnd) {
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("engine: invalid %s range [%d, %d) of %d", span, lo, hi, n))
	}
	r := s.reader(lane)
	r.meter.Charge(sim.CtrServerScans, r.meter.Costs().CursorOpen, 1)
	var end cursorEnd
	if r.mode == payPooled {
		end.sp = s.Tracer().Start(obs.CatCursor, span)
	}
	return r, end
}

// scanCursor is a firehose cursor over a page range of the data table with a
// pushed-down filter: the server evaluates the filter on every row (charging
// server CPU and, through its reader, page I/O) and transmits only matching
// rows (charging RowTransmit each), exactly the §4.3.1 "reducing data
// transmitted from the server" mechanism.
type scanCursor struct {
	cursorEnd
	r      heapReader
	filter predicate.Filter
	page   storage.PageID // next page to read
	end    storage.PageID
	recs   []byte // unread records of the current page
	row    data.Row
}

// OpenScan initiates a cursor scan of the whole data table on the server's
// own meter with the filter pushed down, charging the cursor-open cost.
func (s *Server) OpenScan(f predicate.Filter) Cursor {
	return s.OpenScanRange(f, 0, s.table.NumPages(), nil)
}

// OpenScanRange initiates a cursor scan over the heap pages [loPage, hiPage):
// the whole table for the server's own stream, or one lane's share of a scan
// split into contiguous, disjoint page ranges, with boundaries typically
// from PageBounds so lanes receive approximately equal estimated work rather
// than equal pages. All of the cursor's costs are charged to lane — the
// worker's forked meter — which also decides who pays for pages
// (Server.reader); a nil lane is the server's own meter.
func (s *Server) OpenScanRange(f predicate.Filter, loPage, hiPage int, lane *sim.Meter) Cursor {
	r, end := s.openCursor("server-scan", loPage, hiPage, s.table.NumPages(), lane)
	return &scanCursor{cursorEnd: end, r: r, filter: f, page: storage.PageID(loPage), end: storage.PageID(hiPage)}
}

func (c *scanCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	meter := c.r.meter
	costs := meter.Costs()
	ncols, recLen := len(c.r.t.Cols), c.r.t.heap.RecLen()
	for {
		if len(c.recs) == 0 {
			if c.page >= c.end {
				c.finish()
				return nil, false
			}
			c.recs = c.r.page(c.page)
			c.page++
			continue
		}
		c.row = data.DecodeRow(c.recs, ncols, c.row)
		c.recs = c.recs[recLen:]
		meter.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
		if c.filter.Eval(c.row) {
			meter.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
			c.rows++
			return c.row, true
		}
	}
}

// PageBounds returns histogram-guided page boundaries splitting a scan with
// filter f into nparts lanes of approximately equal estimated cost: per page,
// one page read, per-row CPU, and perMatch — the caller's full per-matching-
// row cost (transmission, client-side counting, staging writes, copy writes
// ... whatever the scan feeds) — times the estimated matching rows. The
// result is WeightedBounds-shaped (nparts+1 monotone entries) and a pure
// function of the table statistics and the filter; computing it charges
// nothing. Returns nil — meaning "use equal-width" — when hints are disabled
// or the table is empty.
func (s *Server) PageBounds(f predicate.Filter, nparts int, perMatch int64) []int {
	if s.noHints || nparts < 2 {
		return nil
	}
	hints := s.table.PartitionHints(f)
	if hints == nil {
		return nil
	}
	costs := s.meter.Costs()
	weights := make([]int64, len(hints))
	for i, h := range hints {
		weights[i] = costs.ServerPageIO + h.Rows*costs.ServerRowCPU + h.Match*perMatch
	}
	return WeightedBounds(weights, nparts)
}

// EstimateMatch returns the statistics-based estimate of how many table rows
// match f, or -1 when hints are disabled (callers fall back to uniform
// assumptions). Pure and unmetered, like PageBounds.
func (s *Server) EstimateMatch(f predicate.Filter) int64 {
	if s.noHints || s.table.stats == nil {
		return -1
	}
	return s.table.stats.EstimateMatch(f)
}

// tidSet is the TIDs of the rows satisfying a predicate, captured in heap
// order by one qualifying scan of s's table: the body of both §4.3.3 TID
// structures.
type tidSet struct {
	s    *Server
	tids []storage.TID
}

// Size returns the number of TIDs captured.
func (ts *tidSet) Size() int { return len(ts.tids) }

// bounds splits the TIDs into nparts ranges of approximately equal estimated
// cost: every TID pays base, and the transmit-and-process cost — RowTransmit
// plus the caller's perMatch — is scaled by the match density of the TID's
// home page under filter, from the same per-page statistics that guide heap
// scans (a nil filter transmits every row). Nil when hints are disabled or
// the set is empty.
func (ts *tidSet) bounds(filter *predicate.Filter, base int64, nparts int, perMatch int64) []int {
	s := ts.s
	if s.noHints || nparts < 2 || len(ts.tids) == 0 {
		return nil
	}
	var hints []PageHint
	if filter != nil {
		hints = s.table.PartitionHints(*filter)
	}
	per := s.meter.Costs().RowTransmit + perMatch
	weights := make([]int64, len(ts.tids))
	for i, tid := range ts.tids {
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

// Keyset is a keyset cursor (§4.3.3c): the set of TIDs of rows satisfying a
// predicate, captured by one qualifying scan. Re-scanning the keyset fetches
// records by TID; an optional stored-procedure filter restricts which rows
// are transmitted to the middleware.
type Keyset struct{ tidSet }

// keysetCursor fetches a range of keyset rows by TID. If sproc is non-nil it
// is applied at the server so only matching rows are transmitted; with a nil
// sproc every keyset row is transmitted (the client filters), which is the
// behaviour the paper improves on with the stored procedure.
type keysetCursor struct {
	cursorEnd
	r     heapReader
	tids  []storage.TID // unread
	sproc *predicate.Filter
	row   data.Row
}

// OpenScanRange re-scans the keyset's TIDs [lo, hi), in capture order,
// optionally filtering server-side with the stored procedure sproc and
// charging all costs to lane as Server.OpenScanRange does; the bounds
// typically come from ScanBounds.
func (k *Keyset) OpenScanRange(sproc *predicate.Filter, lo, hi int, lane *sim.Meter) Cursor {
	r, end := k.s.openCursor("keyset-scan", lo, hi, len(k.tids), lane)
	return &keysetCursor{cursorEnd: end, r: r, tids: k.tids[lo:hi], sproc: sproc}
}

// ScanBounds returns histogram-guided TID boundaries splitting a keyset
// re-scan into nparts lanes of approximately equal estimated cost: every TID
// pays the fetch (plus sproc CPU), matching rows the transmission and the
// caller's perMatch (tidSet.bounds).
func (k *Keyset) ScanBounds(sproc *predicate.Filter, nparts int, perMatch int64) []int {
	costs := k.s.meter.Costs()
	base := costs.TIDFetch
	if sproc != nil {
		base += costs.ServerRowCPU
	}
	return k.bounds(sproc, base, nparts, perMatch)
}

func (c *keysetCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	meter := c.r.meter
	costs := meter.Costs()
	for len(c.tids) > 0 {
		c.row = c.r.mustFetch(c.tids[0], c.row)
		c.tids = c.tids[1:]
		if c.sproc != nil {
			meter.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
			if !c.sproc.Eval(c.row) {
				continue
			}
		}
		meter.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
		c.rows++
		return c.row, true
	}
	c.finish()
	return nil, false
}

// TIDTable is the §4.3.3b alternative: the TIDs of the relevant subset are
// copied into a server-side temp table, and the subset is retrieved with a
// TID join.
type TIDTable struct{ tidSet }

// tidJoinCursor joins a range of the TID table back to the data table: each
// probe is a random fetch plus join overhead (an index probe per TID).
type tidJoinCursor struct {
	cursorEnd
	r      heapReader
	tids   []storage.TID // unread
	filter predicate.Filter
	row    data.Row
}

// OpenJoinRange retrieves the TID table's entries [lo, hi), in capture
// order, via a TID join, applying filter server-side and charging all costs
// to lane as Server.OpenScanRange does; the bounds typically come from
// JoinBounds.
func (t *TIDTable) OpenJoinRange(filter predicate.Filter, lo, hi int, lane *sim.Meter) Cursor {
	r, end := t.s.openCursor("tid-join-scan", lo, hi, len(t.tids), lane)
	return &tidJoinCursor{cursorEnd: end, r: r, tids: t.tids[lo:hi], filter: filter}
}

// JoinBounds returns histogram-guided TID boundaries splitting a TID join
// into nparts lanes of approximately equal estimated cost: every TID pays
// probe + fetch + row CPU, matching rows the transmission and the caller's
// perMatch (tidSet.bounds).
func (t *TIDTable) JoinBounds(filter predicate.Filter, nparts int, perMatch int64) []int {
	costs := t.s.meter.Costs()
	return t.bounds(&filter, costs.IndexProbe+costs.TIDFetch+costs.ServerRowCPU, nparts, perMatch)
}

func (c *tidJoinCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	meter := c.r.meter
	costs := meter.Costs()
	for len(c.tids) > 0 {
		meter.Charge(sim.CtrIndexProbes, costs.IndexProbe, 1)
		c.row = c.r.mustFetch(c.tids[0], c.row)
		c.tids = c.tids[1:]
		meter.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
		if !c.filter.Eval(c.row) {
			continue
		}
		meter.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
		c.rows++
		return c.row, true
	}
	c.finish()
	return nil, false
}
