package storage

import (
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

// rowAt decodes row i of cs from the group that holds it.
func rowAt(cs *ColStore, i int64) []data.Value {
	g, r := cs.Group(int(i/RowGroupSize)), int(i%RowGroupSize)
	row := make([]data.Value, cs.NumCols())
	for c := range row {
		row[c] = g.Dict(c)[g.Codes(c)[r]]
	}
	return row
}

// scanPages walks h in physical order the way the engine's heap reader does:
// page by page, visiting the rows each holds.
func scanPages(h *HeapFile, fn func(row int64)) {
	for p := 0; p < h.NumPages(); p++ {
		lo, hi := h.PageRows(PageID(p))
		for i := lo; i < hi; i++ {
			fn(i)
		}
	}
}

func TestHeapInsertScanRoundTrip(t *testing.T) {
	const n = 5000
	h := heapOf(2, n)
	if h.NumRows() != n {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	var got []data.Value
	scanPages(h, func(i int64) {
		got = append(got, rowAt(h.cs, i)[0])
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
	if got := rowAt(cs, 0); got[0] != data.Missing || got[1] != 3 {
		t.Errorf("negative value mangled: %v", got)
	}
}

// TestHeapRoundTripProperty: appending arbitrary rows and scanning the heap
// back yields exactly the appended sequence.
func TestHeapRoundTripProperty(t *testing.T) {
	f := func(rows [][2]int32) bool {
		cs := NewColStore(2)
		for _, r := range rows {
			cs.Append([]data.Value{data.Value(r[0]), data.Value(r[1])})
		}
		h := NewHeapFile(cs)
		want := func(i int64) []data.Value { return []data.Value{data.Value(rows[i][0]), data.Value(rows[i][1])} }
		next, ok := int64(0), true
		scanPages(h, func(i int64) {
			ok = ok && i == next && reflect.DeepEqual(rowAt(cs, i), want(i))
			next++
		})
		return ok && next == int64(len(rows))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
