package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/data"
)

// RowGroupSize is the number of rows per sealed columnar row group. 4096
// rows of one 4-byte column dictionary-encode to roughly half a page at
// byte-wide codes, so a sealed group costs about one modeled page per
// column — versus the dozen-plus row-major pages the same rows occupy in
// the heap when the table is more than a couple of columns wide.
const RowGroupSize = 4096

// maxDictSize is the number of distinct values one group column can encode:
// codes are uint16, so the dictionary may hold at most 1<<16 entries (codes
// 0..65535).
const maxDictSize = 1 << 16

// Compile-time guard: a group holds at most RowGroupSize rows (GroupBuilder
// refuses larger ones), so its per-column dictionaries can never exceed
// RowGroupSize distinct values and the uint16 code space is unreachable.
// Raising RowGroupSize past maxDictSize would break that invariant and
// silently alias distinct values onto one code; fail the build instead
// (negative array length).
var _ [maxDictSize - RowGroupSize]struct{}

// ColStore holds a table's rows: column-major and dictionary-encoded, the one
// stored copy (HeapFile is only the page geometry charged over it). Rows are
// appended in insertion order and sealed into immutable row groups of
// RowGroupSize rows; the open tail is encoded on demand so scans always see
// every row. Each sealed group stores,
// per column, a sorted dictionary of the distinct values, a dense code
// vector, and per-code occurrence counts. The sorted dictionary doubles as
// the group's zone map: min = dict[0], max = dict[last], and membership is
// a binary search — enough to prove a predicate can match no row of the
// group without touching a single page.
type ColStore struct {
	ncols  int
	groups []*ColGroup
	tail   *GroupBuilder // the open tail, < RowGroupSize rows
	tailMu sync.Mutex    // guards tailG and the sealing that fills it
	tailG  *ColGroup     // cached encoding of the tail; nil when stale
}

// NewColStore creates an empty columnar store for rows of ncols values.
func NewColStore(ncols int) *ColStore {
	if ncols <= 0 {
		panic("storage: columnar store needs at least one column")
	}
	// A table expects to fill its groups: each is allocated whole.
	return &ColStore{ncols: ncols, tail: NewGroupBuilder(ncols, RowGroupSize, math.MaxInt)}
}

// NumCols returns the number of columns.
func (cs *ColStore) NumCols() int { return cs.ncols }

// NumRows returns the total number of rows, sealed and tail.
func (cs *ColStore) NumRows() int64 {
	return int64(len(cs.groups))*RowGroupSize + int64(cs.tail.n)
}

// NumGroups returns the number of row groups a scan visits: all sealed
// groups plus one for the open tail when it is non-empty.
func (cs *ColStore) NumGroups() int {
	n := len(cs.groups)
	if cs.tail.n > 0 {
		n++
	}
	return n
}

// Append adds one row at the end of the table and seals a row group when the
// tail fills.
func (cs *ColStore) Append(row []data.Value) {
	cs.tailG = nil
	if g := cs.tail.AppendRow(row); g != nil {
		cs.groups = append(cs.groups, g)
	}
}

// Group returns row group g. Index len(sealed groups) addresses the open
// tail, which is encoded on first access and cached until the next Append.
// The returned group is immutable. Readers may call Group concurrently (the
// segments of a scan, the sessions of a fleet): sealed groups are read
// lock-free, and the tail's lazy encoding is serialized. Append is a writer:
// like any table write, it must not run beside any reader.
func (cs *ColStore) Group(g int) *ColGroup {
	if g < len(cs.groups) {
		return cs.groups[g]
	}
	if g == len(cs.groups) && cs.tail.n > 0 {
		cs.tailMu.Lock()
		defer cs.tailMu.Unlock()
		if cs.tailG == nil {
			cs.tailG = cs.tail.seal(true)
		}
		return cs.tailG
	}
	panic("storage: columnar group index out of range")
}

// ColGroup is one immutable row group: up to RowGroupSize rows,
// dictionary-encoded per column.
type ColGroup struct {
	nrows int
	cols  []colVec
}

type colVec struct {
	dict   []data.Value // sorted distinct values; doubles as the zone map
	codes  []uint16     // codes[i] indexes dict
	counts []int64      // occurrences per code, exact
}

// GroupBuilder is the one row-group encoder: it packs rows that arrive one at a
// time (a table's inserts, a staging tee fed by a row cursor) or a few at a
// time (what a staging tee keeps of each block it is shown) into row groups of
// a fixed size. Rows selected from a group are appended in code space: codes
// are translated through a per-call table, never decoded. Either way a sealed
// group has sorted dictionaries of exactly the values its rows use — built
// without ranging a map, hence deterministic — and exact per-code counts.
type GroupBuilder struct {
	size    int // rows per sealed group
	n, want int
	cols    []buildCol
	xlat    []uint16 // scratch: AppendSel's source code -> open-group code, Seal's first-seen -> sorted code
	spares  *Spares  // where the open group's code vectors come from; nil: new ones
}

// buildCol is one column of the open group.
type buildCol struct {
	dict  []data.Value          // distinct values, first seen first
	index map[data.Value]uint16 // value -> position in dict
	codes []uint16              // per row, positions in dict; becomes the sealed group's vector
}

// noCode marks an untranslated xlat slot; the open group never holds that many
// distinct values.
const noCode = maxDictSize - 1

// NewGroupBuilder returns a builder of size-row groups (at most RowGroupSize)
// for rows of ncols values. want is how many rows the caller expects to append
// in all (0: unknown); code vectors are allocated for that many.
func NewGroupBuilder(ncols, size, want int) *GroupBuilder {
	if size < 1 || size > RowGroupSize {
		panic("storage: row group size out of range")
	}
	b := &GroupBuilder{size: size, want: want, cols: make([]buildCol, ncols)}
	for c := range b.cols {
		b.cols[c].index = map[data.Value]uint16{}
	}
	return b
}

// Reset readies b for a new run of want rows, sealed into code vectors from
// spares (nil: new ones); it keeps its dictionary maps and drops the rows of an
// open group, whose vectors go to spares.
func (b *GroupBuilder) Reset(want int, spares *Spares) {
	b.n, b.want, b.spares = 0, want, spares
	for c := range b.cols {
		bc := &b.cols[c]
		if spares != nil && bc.codes != nil {
			spares.codes = append(spares.codes, bc.codes[:0])
		}
		bc.dict, bc.codes = bc.dict[:0], nil
		clear(bc.index)
	}
}

// room readies every column's code vector for n more rows.
func (b *GroupBuilder) room(n int) {
	if b.n == 0 {
		size := min(max(b.want, n), b.size)
		for c := range b.cols {
			b.cols[c].codes = b.spares.take(size)
		}
	}
	b.want -= n
}

// Spares holds code vectors that sealed groups no longer need — a staged group
// once its file holds it, a memory stage once freed — for builders to seal
// their next groups into. The zero value is empty. Builders drawing on one
// Spares must run on one goroutine.
type Spares struct{ codes [][]uint16 }

// Recycle takes g's code vectors into s. g keeps its zone — row count,
// dictionaries, counts — but its codes must not be read again.
func (s *Spares) Recycle(g *ColGroup) {
	for c := range g.cols {
		s.codes = append(s.codes, g.cols[c].codes[:0])
		g.cols[c].codes = nil
	}
}

// take returns an empty vector with room for size codes: the smallest spare
// one that has it, a new one when none does.
func (s *Spares) take(size int) []uint16 {
	best := -1
	if s != nil {
		for i, v := range s.codes {
			if cap(v) >= size && (best < 0 || cap(v) < cap(s.codes[best])) {
				best = i
			}
		}
	}
	if best < 0 {
		return make([]uint16, 0, size)
	}
	v, last := s.codes[best], len(s.codes)-1
	s.codes[best], s.codes = s.codes[last], s.codes[:last]
	return v
}

// code returns v's code in the open group, adding it to the dictionary if new.
func (bc *buildCol) code(v data.Value) uint16 {
	code, ok := bc.index[v]
	if !ok {
		code = uint16(len(bc.dict))
		bc.dict, bc.index[v] = append(bc.dict, v), code
	}
	return code
}

// AppendRow adds one row and returns the group it filled, if it filled one.
func (b *GroupBuilder) AppendRow(row []data.Value) *ColGroup {
	if len(row) != len(b.cols) {
		panic("storage: columnar row width mismatch")
	}
	b.room(1)
	for c, v := range row {
		bc := &b.cols[c]
		bc.codes = append(bc.codes, bc.code(v))
	}
	if b.n++; b.n == b.size {
		return b.Seal()
	}
	return nil
}

// AppendSel adds rows sel of g (group-relative indices, in order) and returns
// the group they filled, if they filled one. sel must not hold more rows than a
// group of the builder does, so that it fills at most one.
func (b *GroupBuilder) AppendSel(g *ColGroup, sel []int32) (full *ColGroup) {
	if len(sel) > b.size {
		panic("storage: selection larger than the builder's row groups")
	}
	for len(sel) > 0 {
		take := min(len(sel), b.size-b.n)
		b.room(take)
		for c := range b.cols {
			bc, src := &b.cols[c], &g.cols[c]
			xlat := grow(b.xlat, len(src.dict))
			for i := range xlat {
				xlat[i] = noCode
			}
			for _, ri := range sel[:take] {
				code := src.codes[ri]
				if xlat[code] == noCode {
					xlat[code] = bc.code(src.dict[code])
				}
				bc.codes = append(bc.codes, xlat[code])
			}
			b.xlat = xlat
		}
		sel = sel[take:]
		if b.n += take; b.n == b.size {
			full = b.Seal()
		}
	}
	return full
}

// Seal closes the open group and returns it, or nil when it holds no row. The
// group takes over the builder's code vectors, recoded in place from
// first-seen to sorted dictionary order.
func (b *GroupBuilder) Seal() *ColGroup { return b.seal(false) }

// seal encodes the open group; with keep it stays open, and the group returned
// is a copy.
func (b *GroupBuilder) seal(keep bool) *ColGroup {
	if b.n == 0 {
		return nil
	}
	g := &ColGroup{nrows: b.n, cols: make([]colVec, len(b.cols))}
	for c := range b.cols {
		bc := &b.cols[c]
		dict := slices.Clone(bc.dict)
		slices.Sort(dict)
		remap := grow(b.xlat, len(dict))
		for rank, v := range dict {
			remap[bc.index[v]] = uint16(rank)
		}
		codes, counts := bc.codes, make([]int64, len(dict))
		if keep {
			codes = make([]uint16, b.n)
		}
		for i, code := range bc.codes {
			codes[i] = remap[code]
			counts[remap[code]]++
		}
		g.cols[c], b.xlat = colVec{dict: dict, codes: codes, counts: counts}, remap
		if !keep {
			bc.dict, bc.codes = bc.dict[:0], nil
			clear(bc.index)
		}
	}
	if !keep {
		b.n = 0
	}
	return g
}

// Zone returns g without its code vectors: row count, dictionaries and
// per-code counts — all that compiling a filter, a zone-map verdict and a
// segment split need, and what a staging file's reader keeps in memory of each group.
func (g *ColGroup) Zone() *ColGroup {
	z := &ColGroup{nrows: g.nrows, cols: make([]colVec, len(g.cols))}
	for c := range g.cols {
		z.cols[c] = colVec{dict: g.cols[c].dict, counts: g.cols[c].counts}
	}
	return z
}

// AppendCodes appends g's code vectors to dst, column after column,
// little-endian: all of g that its Zone does not hold. A staging file is a run
// of these.
func (g *ColGroup) AppendCodes(dst []byte) []byte {
	dst = slices.Grow(dst, 2*g.nrows*len(g.cols))
	for c := range g.cols {
		for _, code := range g.cols[c].codes {
			dst = binary.LittleEndian.AppendUint16(dst, code)
		}
	}
	return dst
}

// DecodeCodes puts the code vectors of src, the AppendCodes image of the group
// whose zone z is, under z's dictionaries and counts — shared, not copied — in
// g (reusing its vectors) and returns it. The bytes come from disk, so they are
// not trusted: an image that is not of z's rows × columns or that holds a code
// outside its dictionary is refused.
func (z *ColGroup) DecodeCodes(src []byte, g *ColGroup) (*ColGroup, error) {
	n := z.nrows
	if len(src) != 2*n*len(z.cols) {
		return nil, fmt.Errorf("storage: %d bytes are not the codes of %d rows of %d columns", len(src), n, len(z.cols))
	}
	g.nrows, g.cols = n, grow(g.cols, len(z.cols))
	for c := range g.cols {
		v, zc := &g.cols[c], &z.cols[c]
		v.dict, v.counts, v.codes = zc.dict, zc.counts, grow(v.codes, n)
		raw, top := src[2*n*c:], uint16(0)
		for i := range v.codes {
			code := uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
			v.codes[i], top = code, max(top, code)
		}
		if int(top) >= len(zc.dict) {
			return nil, fmt.Errorf("storage: column %d holds code %d outside its %d-value dictionary", c, top, len(zc.dict))
		}
	}
	return g, nil
}

// grow returns s with length n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NumRows returns the number of rows in the group.
func (g *ColGroup) NumRows() int { return g.nrows }

// NumCols returns the number of columns in the group.
func (g *ColGroup) NumCols() int { return len(g.cols) }

// Dict returns the sorted distinct values of col. Callers must not modify it.
func (g *ColGroup) Dict(col int) []data.Value { return g.cols[col].dict }

// Codes returns col's dense code vector. Callers must not modify it.
func (g *ColGroup) Codes(col int) []uint16 { return g.cols[col].codes }

// CodeCounts returns the exact per-code occurrence counts for col, aligned
// with Dict. Callers must not modify it.
func (g *ColGroup) CodeCounts(col int) []int64 { return g.cols[col].counts }

// FindCode binary-searches col's dictionary for v, returning its code and
// whether the value occurs in this group at all. A miss is a zone-map
// verdict: no row of the group has v in col.
func (g *ColGroup) FindCode(col int, v data.Value) (uint16, bool) {
	dict := g.cols[col].dict
	i := sort.Search(len(dict), func(j int) bool { return dict[j] >= v })
	if i < len(dict) && dict[i] == v {
		return uint16(i), true
	}
	return 0, false
}

// colBytes returns the modeled size of one encoded column: the dictionary
// at 4 bytes per value plus the code vector at one byte per row for
// dictionaries that fit 8-bit codes, two bytes otherwise.
func (g *ColGroup) colBytes(col int) int64 {
	v := &g.cols[col]
	width := int64(1)
	if len(v.dict) > 256 {
		width = 2
	}
	return int64(4*len(v.dict)) + width*int64(g.nrows)
}

// Bytes returns the modeled size of the listed columns (nil means all).
func (g *ColGroup) Bytes(cols []int) int64 {
	var total int64
	if cols == nil {
		for c := range g.cols {
			total += g.colBytes(c)
		}
		return total
	}
	for _, c := range cols {
		total += g.colBytes(c)
	}
	return total
}

// Pages returns the modeled page-I/O cost of reading the listed columns of
// this group (nil means all): each column is packed into its own run of
// PageSize pages, at least one per column, so a scan that needs only k
// columns reads only their pages.
func (g *ColGroup) Pages(cols []int) int64 {
	var pages int64
	count := func(c int) {
		b := g.colBytes(c)
		p := (b + PageSize - 1) / PageSize
		if p < 1 {
			p = 1
		}
		pages += p
	}
	if cols == nil {
		for c := range g.cols {
			count(c)
		}
		return pages
	}
	for _, c := range cols {
		count(c)
	}
	return pages
}
