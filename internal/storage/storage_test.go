package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func rec8(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// scanPages walks h in physical order the way the engine's heap reader does:
// touch the page in the pool, then read its packed records. It returns the
// number of pool misses.
func scanPages(bp *BufferPool, h *HeapFile, fn func(tid TID, rec []byte)) (misses int) {
	for p := 0; p < h.NumPages(); p++ {
		if bp.Touch(h, PageID(p)) {
			misses++
		}
		recs := h.PageRecords(PageID(p))
		for s := 0; s*h.RecLen() < len(recs); s++ {
			fn(TID{Page: PageID(p), Slot: uint16(s)}, recs[s*h.RecLen():(s+1)*h.RecLen()])
		}
	}
	return misses
}

func TestHeapInsertScanRoundTrip(t *testing.T) {
	h := NewHeapFile(8)
	bp := NewBufferPool(4)

	const n = 5000
	for i := uint64(0); i < n; i++ {
		h.Insert(rec8(i))
	}
	if h.NumRows() != n {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	var got []uint64
	scanPages(bp, h, func(tid TID, rec []byte) {
		got = append(got, binary.LittleEndian.Uint64(rec))
	})
	if len(got) != n {
		t.Fatalf("scanned %d rows", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("row %d = %d (physical order must equal insertion order)", i, v)
		}
	}
}

func TestHeapFetchByTID(t *testing.T) {
	h := NewHeapFile(8)
	var tids []TID
	for i := uint64(0); i < 3000; i++ {
		tids = append(tids, h.Insert(rec8(i*7)))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(tids))
		rec, ok := h.Record(tids[i])
		if !ok {
			t.Fatalf("Record(%v): no such record", tids[i])
		}
		if got := binary.LittleEndian.Uint64(rec); got != uint64(i*7) {
			t.Fatalf("Record(%v) = %d, want %d", tids[i], got, i*7)
		}
	}
}

func TestHeapRecordBounds(t *testing.T) {
	h := NewHeapFile(8)
	h.Insert(rec8(1))
	if _, ok := h.Record(TID{Page: 5, Slot: 0}); ok {
		t.Error("out-of-range page accepted")
	}
	if _, ok := h.Record(TID{Page: 0, Slot: 99}); ok {
		t.Error("out-of-range slot accepted")
	}
	if rec, ok := h.Record(TID{Page: 0, Slot: 0}); !ok || binary.LittleEndian.Uint64(rec) != 1 {
		t.Error("valid TID rejected")
	}
}

func TestRecordsPerPageAndBytes(t *testing.T) {
	h := NewHeapFile(100)
	want := (PageSize - pageHeaderBytes) / 100
	if h.perPage != want {
		t.Fatalf("records per page = %d, want %d", h.perPage, want)
	}
	for i := 0; i < want+1; i++ { // one page plus one record
		h.Insert(make([]byte, 100))
	}
	if h.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", h.NumPages())
	}
	if h.Bytes() != 2*PageSize {
		t.Errorf("Bytes = %d", h.Bytes())
	}
}

func TestNewHeapFilePanics(t *testing.T) {
	for _, recLen := range []int{0, -4, PageSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("recLen %d: no panic", recLen)
				}
			}()
			NewHeapFile(recLen)
		}()
	}
}

func TestInsertWrongLengthPanics(t *testing.T) {
	h := NewHeapFile(8)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong record length")
		}
	}()
	h.Insert([]byte{1, 2, 3})
}

func TestBufferPoolChargesMissesOnly(t *testing.T) {
	h := NewHeapFile(8)
	perPage := h.perPage
	// Fill exactly 3 pages.
	for i := 0; i < 3*perPage; i++ {
		h.Insert(rec8(uint64(i)))
	}
	bp := NewBufferPool(10) // all pages fit
	nop := func(TID, []byte) {}
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
	h := NewHeapFile(8)
	perPage := h.perPage
	for i := 0; i < 4*perPage; i++ { // 4 pages
		h.Insert(rec8(uint64(i)))
	}
	bp := NewBufferPool(2) // pool smaller than file
	nop := func(TID, []byte) {}
	// With LRU capacity 2 over a 4-page sequential scan, every access
	// misses on both scans.
	if got := scanPages(bp, h, nop) + scanPages(bp, h, nop); got != 8 {
		t.Errorf("pages missed = %d, want 8 (sequential flooding)", got)
	}
}

func TestBufferPoolInvalidate(t *testing.T) {
	h1 := NewHeapFile(8)
	h2 := NewHeapFile(8)
	bp := NewBufferPool(10)
	h1.Insert(rec8(1))
	h2.Insert(rec8(2))
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

// TestHeapRoundTripProperty: inserting arbitrary records and scanning them
// back yields exactly the inserted sequence, and every returned TID resolves
// to its record.
func TestHeapRoundTripProperty(t *testing.T) {
	f := func(recs [][4]byte) bool {
		h := NewHeapFile(4)
		bp := NewBufferPool(2)
		tids := make([]TID, len(recs))
		for i, r := range recs {
			tids[i] = h.Insert(r[:])
		}
		i := 0
		ok := true
		scanPages(bp, h, func(tid TID, rec []byte) {
			if i >= len(recs) || !bytes.Equal(rec, recs[i][:]) || tid != tids[i] {
				ok = false
				return
			}
			i++
		})
		if !ok || i != len(recs) {
			return false
		}
		for j, tid := range tids {
			rec, found := h.Record(tid)
			if !found || !bytes.Equal(rec, recs[j][:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
