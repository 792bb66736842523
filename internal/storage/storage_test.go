package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
)

// heapOf returns the heap of a fresh table of ncols columns holding n rows;
// row i holds i in its first column and i*7 in the others.
func heapOf(ncols, n int) *HeapFile {
	cs := NewColStore(ncols)
	row := make([]data.Value, ncols)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = data.Value(i * 7)
		}
		row[0] = data.Value(i)
		cs.Append(row)
	}
	return NewHeapFile(cs)
}

// scanPages walks h in physical order the way the engine's heap reader does:
// touch the page in the pool, then visit the rows it holds. It returns the
// number of pool misses.
func scanPages(bp *BufferPool, h *HeapFile, fn func(tid TID, row int64)) (misses int) {
	for p := 0; p < h.NumPages(); p++ {
		if bp.Touch(h, PageID(p)) {
			misses++
		}
		lo, hi := h.PageRows(PageID(p))
		for i := lo; i < hi; i++ {
			fn(TID{Page: PageID(p), Slot: uint16(i - lo)}, i)
		}
	}
	return misses
}

func TestHeapInsertScanRoundTrip(t *testing.T) {
	const n = 5000
	h := heapOf(2, n)
	if h.NumRows() != n {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	var got []data.Value
	scanPages(NewBufferPool(4), h, func(tid TID, i int64) {
		if h.TID(i) != tid {
			t.Fatalf("row %d: TID %v, the scan is at %v", i, h.TID(i), tid)
		}
		got = append(got, h.cs.Row(i, nil)[0])
	})
	if len(got) != n {
		t.Fatalf("scanned %d rows", len(got))
	}
	for i, v := range got {
		if v != data.Value(i) {
			t.Fatalf("row %d = %d (physical order must equal insertion order)", i, v)
		}
	}
}

func TestHeapFetchByTID(t *testing.T) {
	h := heapOf(2, 3000)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		i := int64(rng.Intn(3000))
		tid := h.TID(i)
		if int(tid.Slot) >= h.perPage || int64(tid.Page)*int64(h.perPage)+int64(tid.Slot) != i {
			t.Fatalf("TID(%d) = %v at %d records per page", i, tid, h.perPage)
		}
		got, ok := h.Row(tid)
		if !ok || got != i {
			t.Fatalf("Row(%v) = %d, %v; want %d", tid, got, ok, i)
		}
		if row := h.cs.Row(got, nil); row[1] != data.Value(i*7) {
			t.Fatalf("row %d decodes to %v", i, row)
		}
	}
}

// TestHeapRecordBounds: the arithmetic must not alias a slot past the end of
// a page onto the next page's rows, nor reach past the last record.
func TestHeapRecordBounds(t *testing.T) {
	h := heapOf(2, 2*1023+5) // two full pages and five records
	if h.perPage != 1023 || h.NumPages() != 3 {
		t.Fatalf("%d records per page, %d pages; want 1023, 3", h.perPage, h.NumPages())
	}
	for _, tid := range []TID{
		{Page: -1},
		{Page: 3},
		{Page: 0, Slot: 1023},
		{Page: 2, Slot: 1023},
		{Page: 2, Slot: 5},
		{Page: 1, Slot: 65535},
	} {
		if i, ok := h.Row(tid); ok {
			t.Errorf("Row(%v) = %d: a slot that holds no record accepted", tid, i)
		}
	}
	for _, tid := range []TID{{Page: 0, Slot: 0}, {Page: 1, Slot: 1022}, {Page: 2, Slot: 4}} {
		if i, ok := h.Row(tid); !ok || h.TID(i) != tid {
			t.Errorf("Row(%v) = %d, %v: valid TID rejected", tid, i, ok)
		}
	}
}

func TestRecordsPerPageAndBytes(t *testing.T) {
	want := (PageSize - pageHeaderBytes) / 100
	h := heapOf(25, want+1) // 100-byte records: one page plus one record
	if h.perPage != want {
		t.Fatalf("records per page = %d, want %d", h.perPage, want)
	}
	if h.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", h.NumPages())
	}
	if h.Bytes() != 2*PageSize {
		t.Errorf("Bytes = %d", h.Bytes())
	}
	if lo, hi := h.PageRows(1); lo != int64(want) || hi != int64(want)+1 {
		t.Errorf("PageRows(1) = [%d, %d), want [%d, %d)", lo, hi, want, want+1)
	}
	if e := heapOf(25, 0); e.NumPages() != 0 || e.Bytes() != 0 {
		t.Errorf("empty heap: %d pages, %d bytes", e.NumPages(), e.Bytes())
	}
}

func TestNewHeapFilePanics(t *testing.T) {
	NewHeapFile(NewColStore((PageSize - pageHeaderBytes) / 4)) // the widest record that fits
	for _, ncols := range []int{(PageSize-pageHeaderBytes)/4 + 1, PageSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d columns: no panic", ncols)
				}
			}()
			NewHeapFile(NewColStore(ncols))
		}()
	}
}

func TestInsertWrongLengthPanics(t *testing.T) {
	cs := NewColStore(2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong row width")
		}
	}()
	cs.Append([]data.Value{1, 2, 3})
}

// TestDecodeNegativeValue: a negative value (Missing) is stored and decoded
// like any other.
func TestDecodeNegativeValue(t *testing.T) {
	cs := NewColStore(2)
	cs.Append([]data.Value{data.Missing, 3})
	if got := cs.Row(0, nil); got[0] != data.Missing || got[1] != 3 {
		t.Errorf("negative value mangled: %v", got)
	}
}

func TestBufferPoolChargesMissesOnly(t *testing.T) {
	h := heapOf(2, 3*1023)  // exactly 3 pages
	bp := NewBufferPool(10) // all pages fit
	nop := func(TID, int64) {}
	if got := scanPages(bp, h, nop); got != 3 {
		t.Fatalf("first scan missed %d pages, want 3", got)
	}
	if got := scanPages(bp, h, nop); got != 0 {
		t.Fatalf("second scan missed %d pages; pool should have cached all 3", got)
	}
	hits, misses := bp.Stats()
	if misses != 3 || hits != 3 {
		t.Errorf("hits=%d misses=%d, want 3/3", hits, misses)
	}
}

func TestBufferPoolEvictsLRU(t *testing.T) {
	h := heapOf(2, 4*1023) // 4 pages
	bp := NewBufferPool(2) // pool smaller than file
	nop := func(TID, int64) {}
	// With LRU capacity 2 over a 4-page sequential scan, every access
	// misses on both scans.
	if got := scanPages(bp, h, nop) + scanPages(bp, h, nop); got != 8 {
		t.Errorf("pages missed = %d, want 8 (sequential flooding)", got)
	}
}

func TestBufferPoolInvalidate(t *testing.T) {
	h1, h2 := heapOf(2, 1), heapOf(2, 1)
	bp := NewBufferPool(10)
	bp.Touch(h1, 0)
	bp.Touch(h2, 0)
	bp.Invalidate(h1)
	if bp.Touch(h2, 0) {
		t.Error("invalidate evicted the wrong file's pages")
	}
	if !bp.Touch(h1, 0) {
		t.Error("invalidated page still cached")
	}
}

func TestBufferPoolCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero capacity")
		}
	}()
	NewBufferPool(0)
}

// TestHeapRoundTripProperty: appending arbitrary rows and scanning the heap
// back yields exactly the appended sequence, and every row's TID resolves to
// it.
func TestHeapRoundTripProperty(t *testing.T) {
	f := func(rows [][2]int32) bool {
		cs := NewColStore(2)
		for _, r := range rows {
			cs.Append([]data.Value{data.Value(r[0]), data.Value(r[1])})
		}
		h := NewHeapFile(cs)
		want := func(i int64) []data.Value { return []data.Value{data.Value(rows[i][0]), data.Value(rows[i][1])} }
		next, ok := int64(0), true
		scanPages(NewBufferPool(2), h, func(tid TID, i int64) {
			ok = ok && i == next && tid == h.TID(i) && reflect.DeepEqual(cs.Row(i, nil), want(i))
			next++
		})
		if !ok || next != int64(len(rows)) {
			return false
		}
		for i := range rows {
			j, found := h.Row(h.TID(int64(i)))
			if !found || j != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
