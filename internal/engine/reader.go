package engine

import (
	"slices"

	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/storage"
)

// heapReader is the one place a heap page is walked and paid for: a table,
// the meter of the stream reading it, and the shared LRU buffer pool it
// consults, paying ServerPageIO for a miss. Two readers
// walk rows as heap records: the model catalog (ModelFromCatalog) and the
// whole-table cursor (Server.OpenScan, §2.3's extract-everything baseline).
// Both go through walk, so page charges always land on the reading stream's
// own meter (a View's), never on the pool's owner. The records are
// the table's columnar copy read through the heap's page arithmetic.
type heapReader struct {
	t     *Table
	pool  *storage.BufferPool
	meter *sim.Meter
}

// reader returns the view's reader over t, charging the view's meter: the
// catalog reads of SQL statements, which run one at a time.
func (e *Engine) reader(t *Table) heapReader {
	return heapReader{t: t, pool: e.bp, meter: e.meter}
}

// reader returns the pooled reader of the server's own stream of the data
// table — a whole-table cursor — charging the server's meter (a View's own).
func (s *Server) reader() heapReader {
	return heapReader{t: s.table, pool: s.eng.bp, meter: s.meter}
}

// page pays for heap page p and returns the rows it holds, [lo, hi).
func (r heapReader) page(p storage.PageID) (lo, hi int64) {
	if r.pool.Touch(r.t.heap, p) {
		r.meter.Charge(sim.CtrServerPages, r.meter.Costs().ServerPageIO, 1)
	}
	return r.t.heap.PageRows(p)
}

// heapWalk is the one walk over a table's heap pages in physical order: each
// page is paid for as the walk enters it and its rows decoded, column by
// column, from the row groups that hold them — a group is looked up once per
// page, not per row — and each row handed out pays ServerRowCPU.
type heapWalk struct {
	r      heapReader
	page   storage.PageID // the next page to enter
	recs   []data.Value   // the entered page's rows, decoded back to back
	k      int            // the next of them
	ncols  int
	rowCPU int64
}

// walk returns a walk of r's table from its first page.
func (r heapReader) walk() *heapWalk {
	return &heapWalk{r: r, ncols: len(r.t.Cols), rowCPU: r.meter.Costs().ServerRowCPU}
}

// Next returns the next row — valid until the following call — or false past
// the last page.
func (w *heapWalk) Next() (data.Row, bool) {
	if w.k*w.ncols == len(w.recs) {
		if int(w.page) >= w.r.t.NumPages() {
			return nil, false
		}
		w.enter()
	}
	row := w.recs[w.k*w.ncols : (w.k+1)*w.ncols : (w.k+1)*w.ncols]
	w.k++
	w.r.meter.Charge(sim.CtrServerRows, w.rowCPU, 1)
	return row, true
}

// enter pays for the next page and decodes its rows: the page's row range
// walked against each group it overlaps.
func (w *heapWalk) enter() {
	lo, hi := w.r.page(w.page)
	w.page++
	w.k = 0
	w.recs = slices.Grow(w.recs[:0], int(hi-lo)*w.ncols)[:int(hi-lo)*w.ncols]
	for i := lo; i < hi; {
		gi := int(i / storage.RowGroupSize)
		g, base := w.r.t.colstore.Group(gi), int64(gi)*storage.RowGroupSize
		end := min(hi, base+int64(g.NumRows()))
		out := w.recs[int(i-lo)*w.ncols:]
		for c := 0; c < w.ncols; c++ {
			dict := g.Dict(c)
			for j, code := range g.Codes(c)[i-base : end-base] {
				out[j*w.ncols+c] = dict[code]
			}
		}
		i = end
	}
}

// scanAll drives the table's rows through fn in physical order (heapWalk).
// fn must not retain row; the scan stops early when fn returns false.
func (r heapReader) scanAll(fn func(row data.Row) bool) {
	w := r.walk()
	for {
		row, ok := w.Next()
		if !ok || !fn(row) {
			return
		}
	}
}
