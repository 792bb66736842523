// Package storage implements the server's physical layer: tables stored once,
// column-major and dictionary-encoded in row groups (ColStore), the heap
// organization the cost model charges them under (HeapFile: fixed-width
// records, so many to an 8 KB page). There is no buffer cache: the paper's
// server scans its heap sequentially and pays for every page. Nothing here
// charges a meter: internal/engine decides what a page read costs, and whom.
//
// The paper requires "no changes to the physical design of the SQL database"
// — the middleware works against a plain heap-organized table — and what that
// organization costs is all the paper depends on: sequential scans pay per
// page. Our rows are vectors of 4-byte categorical codes and tables only grow
// at the end, so which page a record would sit on is arithmetic over its row
// index: the heap keeps no bytes of its own.
package storage

import "fmt"

// PageSize is the size of one disk page in bytes, matching SQL Server 7.0's
// 8 KB pages.
const PageSize = 8192

// pageHeaderBytes reserves room at the start of each page for the record
// count.
const pageHeaderBytes = 8

// PageID identifies a page within one heap file.
type PageID int32

// HeapFile is the heap organization of the table a ColStore holds: records
// of 4 bytes per column, as many as fit after a page's header (perPage) packed
// to a page in insertion order, so row i sits on page i / perPage. It holds no
// record — the store is the one copy, and its row count the one count — only
// that geometry.
type HeapFile struct {
	cs      *ColStore
	perPage int
}

// NewHeapFile returns the heap organization of cs's table.
func NewHeapFile(cs *ColStore) *HeapFile {
	recLen := 4 * cs.NumCols()
	if recLen > PageSize-pageHeaderBytes {
		panic(fmt.Sprintf("storage: invalid record length %d", recLen))
	}
	return &HeapFile{cs: cs, perPage: (PageSize - pageHeaderBytes) / recLen}
}

// NumRows returns the number of records in the file.
func (h *HeapFile) NumRows() int64 { return h.cs.NumRows() }

// NumPages returns the number of pages in the file: every page full but the
// last.
func (h *HeapFile) NumPages() int {
	return int((h.NumRows() + int64(h.perPage) - 1) / int64(h.perPage))
}

// Bytes returns the on-disk size of the file.
func (h *HeapFile) Bytes() int64 { return int64(h.NumPages()) * PageSize }

// PageRows returns the rows page p holds, [lo, hi). It panics on a page
// outside the file.
func (h *HeapFile) PageRows(p PageID) (lo, hi int64) {
	if p < 0 || int(p) >= h.NumPages() {
		panic(fmt.Sprintf("storage: page %d outside a %d-page file", p, h.NumPages()))
	}
	lo = int64(p) * int64(h.perPage)
	return lo, min(lo+int64(h.perPage), h.NumRows())
}
