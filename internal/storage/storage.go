// Package storage implements the server's physical layer: fixed-width
// records packed into 8 KB pages, heap files, and an LRU buffer pool that
// tracks which pages are resident. Nothing here charges a meter: what a page
// read costs, and whom, is decided by the one heap reader in internal/engine.
//
// The paper requires "no changes to the physical design of the SQL database"
// — the middleware works against a plain heap-organized table — so the
// storage layer is intentionally simple: heap files of fixed-width records
// (our rows are vectors of 4-byte categorical codes), sequential scans, and
// record fetch by TID for the keyset-cursor and TID-join experiments (§4.3.3).
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

// TID is a tuple identifier: (page, slot) within a heap file. It is stable
// for the lifetime of the record (this storage layer never moves records).
type TID struct {
	Page PageID
	Slot uint16
}

// String renders the TID as "page:slot".
func (t TID) String() string { return fmt.Sprintf("%d:%d", t.Page, t.Slot) }

// page is one 8 KB page holding fixed-width records.
type page struct {
	buf  [PageSize]byte
	nrec uint16
}

// HeapFile is an append-only heap of fixed-width records. Pages live in
// memory (this is a simulation of server disk, not a persistence layer);
// access is unmetered here and paid for by the caller.
type HeapFile struct {
	recLen  int
	perPage int
	pages   []*page
	nrows   int64
}

// NewHeapFile creates a heap file for records of recLen bytes.
func NewHeapFile(recLen int) *HeapFile {
	if recLen <= 0 || recLen > PageSize-pageHeaderBytes {
		panic(fmt.Sprintf("storage: invalid record length %d", recLen))
	}
	return &HeapFile{
		recLen:  recLen,
		perPage: (PageSize - pageHeaderBytes) / recLen,
	}
}

// RecLen returns the fixed record length in bytes.
func (h *HeapFile) RecLen() int { return h.recLen }

// NumRows returns the number of records in the file.
func (h *HeapFile) NumRows() int64 { return h.nrows }

// NumPages returns the number of pages in the file.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// Bytes returns the on-disk size of the file.
func (h *HeapFile) Bytes() int64 { return int64(len(h.pages)) * PageSize }

// Insert appends one record and returns its TID. rec must be exactly RecLen
// bytes.
func (h *HeapFile) Insert(rec []byte) TID {
	if len(rec) != h.recLen {
		panic(fmt.Sprintf("storage: record length %d, want %d", len(rec), h.recLen))
	}
	var p *page
	if n := len(h.pages); n > 0 && int(h.pages[n-1].nrec) < h.perPage {
		p = h.pages[n-1]
	} else {
		p = &page{}
		h.pages = append(h.pages, p)
	}
	slot := p.nrec
	off := pageHeaderBytes + int(slot)*h.recLen
	copy(p.buf[off:off+h.recLen], rec)
	p.nrec++
	h.nrows++
	return TID{Page: PageID(len(h.pages) - 1), Slot: slot}
}

// Record returns the raw bytes of the record at tid, and whether the slot
// exists. The returned slice aliases page memory and must not be modified or
// retained across inserts.
func (h *HeapFile) Record(tid TID) ([]byte, bool) {
	if int(tid.Page) < 0 || int(tid.Page) >= len(h.pages) {
		return nil, false
	}
	p := h.pages[tid.Page]
	if tid.Slot >= p.nrec {
		return nil, false
	}
	off := pageHeaderBytes + int(tid.Slot)*h.recLen
	return p.buf[off : off+h.recLen], true
}

// PageRecords returns the records of page pid packed back to back, RecLen
// bytes each, in slot order. It panics on a page outside the file. The slice
// aliases page memory like Record's.
func (h *HeapFile) PageRecords(pid PageID) []byte {
	p := h.pages[pid]
	return p.buf[pageHeaderBytes : pageHeaderBytes+int(p.nrec)*h.recLen]
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

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

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
