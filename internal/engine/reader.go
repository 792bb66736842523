package engine

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/storage"
)

// payMode says who pays when a heapReader visits a heap page. The opener
// picks it from what it can observe about the stream, never from an option.
type payMode uint8

const (
	// payPooled is the server's only stream (a statement, a whole-table
	// cursor): it consults the shared LRU buffer pool and pays ServerPageIO for
	// a miss.
	payPooled payMode = iota
	// payCold is one of several forked lanes (the arms of a UNION run on lanes,
	// execSelect): it pays ServerPageIO for every page and leaves the pool
	// untouched. Concurrent lanes would interleave nondeterministically in the
	// pool's LRU state, so consulting it would make page accounting depend on
	// goroutine scheduling; reading cold keeps every lane's charges a pure
	// function of its partition — bit-for-bit reproducible across GOMAXPROCS —
	// matches the physical reality that n concurrent scan streams defeat a
	// small shared cache, and leaves the pool's contents as they were for later
	// pooled streams. The columnar scan (scanGroups) follows the same rule per
	// row group.
	payCold
)

// heapReader is the one place a heap page is walked and paid for: a table,
// the meter of the stream reading it, and who pays for the page. Everything
// that reads heap records — the whole-table cursor, the SQL executor — goes
// through page, scanAll or fetch, so page charges always land on the reading
// stream's own meter (a View's, a lane's), never on the pool's owner.
type heapReader struct {
	t     *Table
	pool  *storage.BufferPool // consulted by payPooled only
	meter *sim.Meter
	mode  payMode
}

// reader returns the view's reader over t, charging the view's meter: pooled
// for SQL statements, index builds and catalog reads, which run one at a time;
// cold for a lane view.
func (e *Engine) reader(t *Table) heapReader {
	r := heapReader{t: t, pool: e.bp, meter: e.meter, mode: payPooled}
	if e.lane {
		r.mode = payCold
	}
	return r
}

// reader returns the pooled reader of the server's own stream of the data
// table — a whole-table cursor — charging the server's meter (a View's own).
func (s *Server) reader() heapReader {
	return heapReader{t: s.table, pool: s.eng.bp, meter: s.meter, mode: payPooled}
}

// page pays for heap page p and returns its records packed back to back.
func (r heapReader) page(p storage.PageID) []byte {
	if r.mode == payCold || r.pool.Touch(r.t.heap, p) {
		r.meter.Charge(sim.CtrServerPages, r.meter.Costs().ServerPageIO, 1)
	}
	return r.t.heap.PageRecords(p)
}

// scanAll drives the table's rows through fn in physical order, paying each
// page and ServerRowCPU per decoded row. fn must not retain row; the scan stops
// early when fn returns false.
func (r heapReader) scanAll(fn func(tid storage.TID, row data.Row) bool) {
	ncols := len(r.t.Cols)
	recLen := r.t.heap.RecLen()
	rowCPU := r.meter.Costs().ServerRowCPU
	var row data.Row
	for p := storage.PageID(0); int(p) < r.t.NumPages(); p++ {
		recs := r.page(p)
		for slot := uint16(0); len(recs) > 0; slot++ {
			row = data.DecodeRow(recs, ncols, row)
			recs = recs[recLen:]
			r.meter.Charge(sim.CtrServerRows, rowCPU, 1)
			if !fn(storage.TID{Page: p, Slot: slot}, row) {
				return
			}
		}
	}
}

// fetch reads one row by TID into dst, paying the amortized random-I/O
// TIDFetch plus, for a pooled stream, the page on a pool miss.
func (r heapReader) fetch(tid storage.TID, dst data.Row) (data.Row, error) {
	rec, ok := r.t.heap.Record(tid)
	if !ok {
		return nil, fmt.Errorf("engine: table %q has no record at TID %v", r.t.Name, tid)
	}
	if r.mode == payPooled && r.pool.Touch(r.t.heap, tid.Page) {
		r.meter.Charge(sim.CtrServerPages, r.meter.Costs().ServerPageIO, 1)
	}
	r.meter.Charge(sim.CtrTIDFetches, r.meter.Costs().TIDFetch, 1)
	return data.DecodeRow(rec, len(r.t.Cols), dst), nil
}
