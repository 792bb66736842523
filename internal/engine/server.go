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

// SplitHints reports whether histogram-guided partition bounds are enabled.
func (s *Server) SplitHints() bool { return !s.noHints }

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

// Cursor streams rows from the server to the middleware. Next returns the
// next row (valid until the following call) and whether one was produced.
type Cursor interface {
	Next() (data.Row, bool)
	Close()
}

// scanCursor is a firehose cursor over the data table with a pushed-down
// filter: the server evaluates the filter on every row (charging server CPU
// and page I/O through the buffer pool) and transmits only matching rows
// (charging RowTransmit each), exactly the §4.3.1 "reducing data transmitted
// from the server" mechanism.
type scanCursor struct {
	s      *Server
	filter predicate.Filter
	page   storage.PageID
	slot   uint16
	row    data.Row
	closed bool
	sp     *obs.Span
	rows   int64
}

// OpenScan initiates a cursor scan of the data table with the filter pushed
// down, charging the cursor-open cost.
func (s *Server) OpenScan(f predicate.Filter) Cursor {
	s.meter.Charge(sim.CtrServerScans, s.meter.Costs().CursorOpen, 1)
	return &scanCursor{s: s, filter: f, sp: s.Tracer().Start(obs.CatCursor, "server-scan")}
}

// finish closes the cursor span once, recording the rows transmitted.
func (c *scanCursor) finish() {
	if c.sp != nil {
		c.sp.SetRows(c.rows).End()
		c.sp = nil
	}
}

func (c *scanCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	h := c.s.table.heap
	ncols := len(c.s.table.Cols)
	costs := c.s.meter.Costs()
	for int(c.page) < h.NumPages() {
		rec, ok := heapRecord(h, c.page, c.slot)
		if !ok {
			c.page++
			c.slot = 0
			continue
		}
		if c.slot == 0 {
			// First record on the page: account the page read.
			c.s.eng.bp.TouchForScan(h, c.page)
		}
		c.slot++
		c.row = data.DecodeRow(rec, ncols, c.row)
		c.s.meter.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
		if c.filter.Eval(c.row) {
			c.s.meter.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
			c.rows++
			return c.row, true
		}
	}
	c.finish()
	return nil, false
}

func (c *scanCursor) Close() {
	c.closed = true
	c.finish()
}

// OpenScanRange initiates a cursor scan over the heap pages [loPage, hiPage):
// one lane's share of a scan split into contiguous, disjoint page ranges,
// with boundaries typically from PageBounds so lanes receive approximately
// equal estimated work rather than equal pages. Every lane opens its own
// range cursor (so the cursor-open cost is paid once per range) and all of
// the cursor's costs are charged to lane — the worker's forked meter. A nil
// lane charges the server's own meter. Empty ranges are valid (an empty lane
// of a skewed split) and yield no rows.
//
// Unlike OpenScan, a range cursor bypasses the shared LRU buffer pool and
// charges ServerPageIO for every page it reads. Concurrent workers would
// interleave nondeterministically in the pool's LRU state, so the pool
// cannot be consulted without making page-I/O accounting depend on goroutine
// scheduling; the cold-scan model keeps parallel accounting bit-for-bit
// reproducible and matches the physical reality that n concurrent scan
// streams defeat a small shared cache. The pool's contents are left
// untouched for later sequential operations.
func (s *Server) OpenScanRange(f predicate.Filter, loPage, hiPage int, lane *sim.Meter) Cursor {
	np := s.table.heap.NumPages()
	if loPage < 0 || hiPage < loPage || hiPage > np {
		panic(fmt.Sprintf("engine: invalid scan range [%d, %d) of %d pages", loPage, hiPage, np))
	}
	if lane == nil {
		lane = s.meter
	}
	lane.Charge(sim.CtrServerScans, lane.Costs().CursorOpen, 1)
	return &partScanCursor{
		s:      s,
		lane:   lane,
		filter: f,
		page:   storage.PageID(loPage),
		end:    storage.PageID(hiPage),
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

// partScanCursor is a scanCursor restricted to a page range [page, end),
// charging a dedicated lane meter. It reads heap pages directly (the heap is
// immutable during scans) and never touches shared engine state, so any
// number of partition cursors over disjoint ranges may run concurrently.
type partScanCursor struct {
	s      *Server
	lane   *sim.Meter
	filter predicate.Filter
	page   storage.PageID
	end    storage.PageID
	slot   uint16
	row    data.Row
	closed bool
}

func (c *partScanCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	h := c.s.table.heap
	ncols := len(c.s.table.Cols)
	costs := c.lane.Costs()
	for c.page < c.end {
		rec, ok := heapRecord(h, c.page, c.slot)
		if !ok {
			c.page++
			c.slot = 0
			continue
		}
		if c.slot == 0 {
			// First record on the page: cold-scan page read (see
			// OpenScanRange for why the buffer pool is bypassed).
			c.lane.Charge(sim.CtrServerPages, costs.ServerPageIO, 1)
		}
		c.slot++
		c.row = data.DecodeRow(rec, ncols, c.row)
		c.lane.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
		if c.filter.Eval(c.row) {
			c.lane.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
			return c.row, true
		}
	}
	return nil, false
}

func (c *partScanCursor) Close() { c.closed = true }

// Keyset is a keyset cursor (§4.3.3c): the set of TIDs of rows satisfying a
// predicate, captured by one qualifying scan. Re-scanning the keyset fetches
// records by TID; an optional stored-procedure filter restricts which rows
// are transmitted to the middleware.
type Keyset struct {
	s    *Server
	tids []storage.TID
}

// OpenKeyset runs the qualifying scan and captures the keyset. The scan
// charges full sequential-scan costs but transmits nothing.
func (s *Server) OpenKeyset(f predicate.Filter) *Keyset {
	sp := s.Tracer().Start(obs.CatAux, "keyset-build")
	s.meter.Charge(sim.CtrServerScans, s.meter.Costs().CursorOpen, 1)
	ks := &Keyset{s: s}
	s.eng.scan(s.table, func(tid storage.TID, row data.Row) bool {
		if f.Eval(row) {
			ks.tids = append(ks.tids, tid)
		}
		return true
	})
	sp.SetRows(int64(len(ks.tids))).End()
	return ks
}

// Size returns the number of rows captured in the keyset.
func (k *Keyset) Size() int { return len(k.tids) }

// keysetCursor fetches keyset rows by TID. If sproc is non-nil it is
// applied at the server so only matching rows are transmitted; with a nil
// sproc every keyset row is transmitted (the client filters), which is the
// behaviour the paper improves on with the stored procedure.
type keysetCursor struct {
	k      *Keyset
	sproc  *predicate.Filter
	i      int
	row    data.Row
	closed bool
	sp     *obs.Span
	rows   int64
}

// OpenScan re-scans the keyset, optionally filtering server-side with the
// stored procedure sproc.
func (k *Keyset) OpenScan(sproc *predicate.Filter) Cursor {
	k.s.meter.Charge(sim.CtrServerScans, k.s.meter.Costs().CursorOpen, 1)
	return &keysetCursor{k: k, sproc: sproc, sp: k.s.Tracer().Start(obs.CatCursor, "keyset-scan")}
}

func (c *keysetCursor) finish() {
	if c.sp != nil {
		c.sp.SetRows(c.rows).End()
		c.sp = nil
	}
}

func (c *keysetCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	s := c.k.s
	costs := s.meter.Costs()
	for c.i < len(c.k.tids) {
		tid := c.k.tids[c.i]
		c.i++
		row, err := s.eng.fetch(s.table, tid, c.row)
		if err != nil {
			// TIDs are captured from the same immutable heap; a failed
			// fetch indicates corruption and cannot occur in normal use.
			panic(fmt.Sprintf("engine: keyset fetch: %v", err))
		}
		c.row = row
		if c.sproc != nil {
			s.meter.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
			if !c.sproc.Eval(row) {
				continue
			}
		}
		s.meter.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
		c.rows++
		return row, true
	}
	c.finish()
	return nil, false
}

func (c *keysetCursor) Close() {
	c.closed = true
	c.finish()
}

// CopySubset copies the rows satisfying f into a new server-side temp table
// (§4.3.3a) and returns a Server view over it. Charges a full scan plus one
// server row-write per copied row.
func (s *Server) CopySubset(f predicate.Filter) (*Server, error) {
	name := s.eng.tempName()
	t, err := s.eng.CreateTable(name, s.table.Cols)
	if err != nil {
		return nil, err
	}
	t.temp = true
	sp := s.Tracer().Start(obs.CatAux, "copy-subset")
	defer func() { sp.SetRows(t.NumRows()).End() }()
	s.meter.Charge(sim.CtrServerScans, s.meter.Costs().CursorOpen, 1)
	var copyErr error
	s.eng.scan(s.table, func(_ storage.TID, row data.Row) bool {
		if !f.Eval(row) {
			return true
		}
		if _, err := s.eng.Insert(t, row); err != nil {
			copyErr = err
			return false
		}
		return true
	})
	if copyErr != nil {
		return nil, copyErr
	}
	return &Server{eng: s.eng, meter: s.meter, tracer: s.tracer, schema: s.schema, table: t, noHints: s.noHints}, nil
}

// Drop removes the server's table (used to free temp tables).
func (s *Server) Drop() error { return s.eng.DropTable(s.table.Name) }

// TIDTable is the §4.3.3b alternative: the TIDs of the relevant subset are
// copied into a server-side temp table, and the subset is retrieved with a
// TID join.
type TIDTable struct {
	s    *Server
	tids []storage.TID
}

// CopyTIDs captures the TIDs of rows satisfying f into a server-side TID
// table: one qualifying scan plus one row-write per TID.
func (s *Server) CopyTIDs(f predicate.Filter) *TIDTable {
	sp := s.Tracer().Start(obs.CatAux, "tid-table-build")
	s.meter.Charge(sim.CtrServerScans, s.meter.Costs().CursorOpen, 1)
	tt := &TIDTable{s: s}
	costs := s.meter.Costs()
	s.eng.scan(s.table, func(tid storage.TID, row data.Row) bool {
		if f.Eval(row) {
			tt.tids = append(tt.tids, tid)
			s.meter.Charge(sim.CtrServerRows, costs.ServerRowWrite, 1)
		}
		return true
	})
	sp.SetRows(int64(len(tt.tids))).End()
	return tt
}

// Size returns the number of TIDs captured.
func (t *TIDTable) Size() int { return len(t.tids) }

// tidJoinCursor joins the TID table back to the data table: each probe is a
// random fetch plus join overhead (an index probe per TID).
type tidJoinCursor struct {
	t      *TIDTable
	filter predicate.Filter
	i      int
	row    data.Row
	closed bool
	sp     *obs.Span
	rows   int64
}

// OpenJoin retrieves the subset via a TID join, applying filter server-side.
func (t *TIDTable) OpenJoin(filter predicate.Filter) Cursor {
	t.s.meter.Charge(sim.CtrServerScans, t.s.meter.Costs().CursorOpen, 1)
	return &tidJoinCursor{t: t, filter: filter, sp: t.s.Tracer().Start(obs.CatCursor, "tid-join-scan")}
}

func (c *tidJoinCursor) finish() {
	if c.sp != nil {
		c.sp.SetRows(c.rows).End()
		c.sp = nil
	}
}

func (c *tidJoinCursor) Next() (data.Row, bool) {
	if c.closed {
		return nil, false
	}
	s := c.t.s
	costs := s.meter.Costs()
	for c.i < len(c.t.tids) {
		tid := c.t.tids[c.i]
		c.i++
		s.meter.Charge(sim.CtrIndexProbes, costs.IndexProbe, 1)
		row, err := s.eng.fetch(s.table, tid, c.row)
		if err != nil {
			panic(fmt.Sprintf("engine: TID join fetch: %v", err))
		}
		c.row = row
		s.meter.Charge(sim.CtrServerRows, costs.ServerRowCPU, 1)
		if !c.filter.Eval(row) {
			continue
		}
		s.meter.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, 1)
		c.rows++
		return row, true
	}
	c.finish()
	return nil, false
}

func (c *tidJoinCursor) Close() {
	c.closed = true
	c.finish()
}

// heapRecord returns the raw record at (page, slot) if it exists. It peeks
// directly into the heap (metering is the cursor's responsibility).
func heapRecord(h *storage.HeapFile, p storage.PageID, s uint16) ([]byte, bool) {
	return h.Record(storage.TID{Page: p, Slot: s})
}
