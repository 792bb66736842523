// Package storage implements the server's physical layer: tables stored once,
// column-major and dictionary-encoded in row groups (ColStore), the heap
// organization the cost model charges them under (HeapFile: fixed-width
// records, so many to an 8 KB page), and an LRU buffer pool that tracks which
// heap pages are resident. Nothing here charges a meter: what a page read
// costs, and whom, is decided by the one heap reader in internal/engine.
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
// that geometry, and it is the identity of the table's frames in a BufferPool.
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

// BufferPool is an LRU set of resident (file, page) frames. The pool capacity
// models the server's buffer cache: with the default small capacity,
// repeated full scans of a large table keep missing, which is the regime the
// paper's middleware is designed for.
type BufferPool struct {
	capacity int
	frames   map[frameKey]*frameNode
	head     *frameNode // most recently used
	tail     *frameNode // least recently used
	hits     int64
	misses   int64
}

type frameKey struct {
	file *HeapFile
	page PageID
}

type frameNode struct {
	key        frameKey
	prev, next *frameNode
}

// NewBufferPool creates a pool holding up to capacity pages. capacity must
// be at least 1.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		panic("storage: buffer pool capacity must be >= 1")
	}
	return &BufferPool{
		capacity: capacity,
		frames:   make(map[frameKey]*frameNode, capacity),
	}
}

// Stats returns the cumulative hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses int64) { return bp.hits, bp.misses }

// Touch records an access to (file, page), maintaining LRU order, and reports
// whether it missed: the page was not resident and had to be read in.
func (bp *BufferPool) Touch(f *HeapFile, pid PageID) (miss bool) {
	k := frameKey{f, pid}
	if n, ok := bp.frames[k]; ok {
		bp.hits++
		bp.moveToFront(n)
		return false
	}
	bp.misses++
	n := &frameNode{key: k}
	bp.frames[k] = n
	bp.pushFront(n)
	if len(bp.frames) > bp.capacity {
		bp.evict()
	}
	return true
}

// Invalidate drops all frames belonging to the file (used when a temp table
// is dropped).
func (bp *BufferPool) Invalidate(f *HeapFile) {
	for n := bp.head; n != nil; {
		next := n.next
		if n.key.file == f {
			bp.unlink(n)
			delete(bp.frames, n.key)
		}
		n = next
	}
}

func (bp *BufferPool) pushFront(n *frameNode) {
	n.prev = nil
	n.next = bp.head
	if bp.head != nil {
		bp.head.prev = n
	}
	bp.head = n
	if bp.tail == nil {
		bp.tail = n
	}
}

func (bp *BufferPool) unlink(n *frameNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		bp.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		bp.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (bp *BufferPool) moveToFront(n *frameNode) {
	if bp.head == n {
		return
	}
	bp.unlink(n)
	bp.pushFront(n)
}

func (bp *BufferPool) evict() {
	if bp.tail == nil {
		return
	}
	n := bp.tail
	bp.unlink(n)
	delete(bp.frames, n.key)
}
