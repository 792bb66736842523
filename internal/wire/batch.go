package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Cell is one result value: an integer (the default) or a string. Only the
// field Str selects travels.
type Cell struct {
	Str bool
	I   int64
	S   string
}

// RowBatch carries a slice of a result stream: rows of equal width, sent
// column by column.
type RowBatch struct {
	Rows [][]Cell

	// Decode storage, reused from frame to frame: the cells Rows slices, the
	// last string column's dictionary, and the set that checks one for
	// duplicates.
	cells []Cell
	dict  []string
	seen  map[string]struct{}
}

// ScoredBatch carries a slice of a scoring result stream: the model that
// scored it, one predicted class label per row, and (when the client asked
// for them) the per-row class-count distributions, aligned with Classes and
// all of one width. Distributions of width zero travel as none.
type ScoredBatch struct {
	Model   string
	Classes []int32
	Dists   [][]int64

	flat []int64 // decode storage Dists slices, reused from frame to frame
}

// BatchError reports a batch the binary codec refuses: a payload that is
// truncated, over-long, inconsistent or not in its one canonical encoding, or
// a batch value the layout cannot carry. The frame around a refused payload
// was still read whole, so the stream it arrived on stays in step.
type BatchError struct {
	Frame Type
	Msg   string
}

func (e *BatchError) Error() string { return "wire: " + e.Frame.String() + ": " + e.Msg }

// Column type bytes of a TRowBatch payload; colInt and colStr are also the
// cell tags inside a mixed column.
const (
	colInt byte = iota
	colStr
	colMixed
)

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendTo appends the batch's TScoredBatch payload to dst.
func (b *ScoredBatch) appendTo(dst []byte) ([]byte, error) {
	rows, k := len(b.Classes), 0
	if len(b.Dists) > 0 {
		if len(b.Dists) != rows {
			return dst, &BatchError{TScoredBatch, fmt.Sprintf("%d distributions for %d rows", len(b.Dists), rows)}
		}
		k = len(b.Dists[0])
	}
	dst = appendString(dst, b.Model)
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(k))
	dst = binary.AppendUvarint(dst, uint64(rows))
	for _, c := range b.Classes {
		dst = binary.AppendVarint(dst, int64(c))
	}
	if k == 0 {
		for i, d := range b.Dists {
			if len(d) != 0 {
				return dst, &BatchError{TScoredBatch, fmt.Sprintf("ragged distributions: row %d has %d counts, row 0 has none", i, len(d))}
			}
		}
		return dst, nil
	}
	dst = binary.AppendUvarint(dst, uint64(rows*k))
	for i, d := range b.Dists {
		if len(d) != k {
			return dst, &BatchError{TScoredBatch, fmt.Sprintf("ragged distributions: row %d has %d counts, row 0 has %d", i, len(d), k)}
		}
		for _, n := range d {
			dst = binary.AppendVarint(dst, n)
		}
	}
	return dst, nil
}

// appendTo appends the batch's TRowBatch payload to dst, building string
// dictionaries in fb's scratch.
func (b *RowBatch) appendTo(dst []byte, fb *frameBuf) ([]byte, error) {
	rows, cols := len(b.Rows), 0
	if rows > 0 {
		cols = len(b.Rows[0])
		if cols == 0 {
			return dst, &BatchError{TRowBatch, fmt.Sprintf("%d rows of no columns", rows)}
		}
	}
	for i, row := range b.Rows {
		if len(row) != cols {
			return dst, &BatchError{TRowBatch, fmt.Sprintf("ragged rows: row %d has %d cells, row 0 has %d", i, len(row), cols)}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(cols))
	for c := 0; c < cols; c++ {
		strs := 0
		for _, row := range b.Rows {
			if row[c].Str {
				strs++
			}
		}
		switch strs {
		case 0:
			dst = append(dst, colInt)
			for _, row := range b.Rows {
				dst = binary.AppendVarint(dst, row[c].I)
			}
		case rows:
			dst = appendStringColumn(append(dst, colStr), b.Rows, c, fb)
		default:
			dst = append(dst, colMixed)
			for _, row := range b.Rows {
				if cell := &row[c]; cell.Str {
					dst = appendString(append(dst, colStr), cell.S)
				} else {
					dst = binary.AppendVarint(append(dst, colInt), cell.I)
				}
			}
		}
	}
	return dst, nil
}

// appendStringColumn appends column c, all strings, as a dictionary numbered
// in order of first use followed by one code per row.
func appendStringColumn(dst []byte, rows [][]Cell, c int, fb *frameBuf) []byte {
	if fb.dict == nil {
		fb.dict = make(map[string]uint64)
	}
	fb.codes = fb.codes[:0]
	for _, row := range rows {
		code, ok := fb.dict[row[c].S]
		if !ok {
			code = uint64(len(fb.dict))
			fb.dict[row[c].S] = code
		}
		fb.codes = append(fb.codes, code)
	}
	dst = binary.AppendUvarint(dst, uint64(len(fb.dict)))
	next := uint64(0)
	for i, code := range fb.codes {
		if code == next { // first use: the entries go out in code order
			dst = appendString(dst, rows[i][c].S)
			next++
		}
	}
	for _, code := range fb.codes {
		dst = binary.AppendUvarint(dst, code)
	}
	clear(fb.dict) // the pool must not pin the batch's strings
	return dst
}

// payloadReader consumes a batch payload. The first failure sticks: bad is
// set, the rest of the payload is dropped, and every later read returns zero,
// so decode loops run on without a check per value. Each such loop is bounded
// by a count that count already held to the bytes present.
type payloadReader struct {
	p   []byte
	bad string
}

func (r *payloadReader) fail(msg string) {
	if r.bad == "" {
		r.bad = msg
	}
	r.p = nil
}

// uvarint reads one unsigned varint in its shortest encoding.
func (r *payloadReader) uvarint() uint64 {
	if len(r.p) > 0 && r.p[0] < 0x80 {
		v := uint64(r.p[0])
		r.p = r.p[1:]
		return v
	}
	return r.uvarintSlow()
}

func (r *payloadReader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.p)
	switch {
	case n == 0:
		r.fail("truncated varint")
		return 0
	case n < 0:
		r.fail("varint overflows 64 bits")
		return 0
	case n > 1 && r.p[n-1] == 0:
		r.fail("over-long varint")
		return 0
	}
	r.p = r.p[n:]
	return v
}

// varint reads one zigzag signed varint.
func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an announced number of things that take at least one payload
// byte each, refusing one the remaining bytes cannot hold — so nothing is ever
// sized by a number the payload did not pay for. what names the number.
func (r *payloadReader) count(what string) int {
	n := r.uvarint()
	if n > uint64(len(r.p)) {
		r.fail(what + " exceeds the payload")
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (r *payloadReader) bytes(what string) []byte {
	n := r.count(what)
	s := r.p[:n]
	r.p = r.p[n:]
	return s
}

// tag reads a column type or cell tag byte.
func (r *payloadReader) tag() byte {
	if len(r.p) == 0 {
		r.fail("truncated payload")
		return 0
	}
	c := r.p[0]
	r.p = r.p[1:]
	return c
}

// finish reports the payload's verdict: the first failure, or bytes left over.
func (r *payloadReader) finish(t Type) error {
	if r.bad == "" && len(r.p) > 0 {
		r.bad = fmt.Sprintf("%d trailing bytes", len(r.p))
	}
	if r.bad != "" {
		return &BatchError{t, r.bad}
	}
	return nil
}

// resize returns s with length n, reusing its array when it is large enough.
// The caller overwrites every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decode overwrites b with the batch in a TScoredBatch payload, reusing b's
// storage. A refused payload leaves b empty.
func (b *ScoredBatch) decode(p []byte) error {
	r := payloadReader{p: p}
	model := r.bytes("model name length")
	rows := r.count("row count")
	k := r.count("distribution width")
	classCount := r.count("class count")
	switch {
	case r.bad != "":
	case k > 0 && rows == 0:
		r.fail("distribution width without rows")
	case classCount != rows:
		r.fail(fmt.Sprintf("class column has %d values for %d rows", classCount, rows))
	case uint64(rows)*uint64(k) > uint64(len(r.p)):
		r.fail("rows × distribution width exceeds the payload")
	}
	if r.bad != "" {
		rows, k = 0, 0
	}
	classes := resize(b.Classes, rows)
	for i := range classes {
		v := r.varint()
		if v < math.MinInt32 || v > math.MaxInt32 {
			r.fail(fmt.Sprintf("class %d outside int32", v))
		}
		classes[i] = int32(v)
	}
	flat, dists := b.flat[:0], b.Dists[:0]
	if k > 0 {
		if n := r.count("distribution count"); r.bad == "" && n != rows*k {
			r.fail(fmt.Sprintf("%d distribution counts for %d rows of width %d", n, rows, k))
		}
		if r.bad == "" {
			flat, dists = resize(flat, rows*k), resize(dists, rows)
			for i := range flat {
				flat[i] = r.varint()
			}
			for i := range dists {
				dists[i] = flat[i*k : (i+1)*k : (i+1)*k]
			}
		}
	}
	if err := r.finish(TScoredBatch); err != nil {
		b.Classes, b.Dists = classes[:0], dists[:0]
		return err
	}
	if b.Model != string(model) { // compares without converting; a stream names one model
		b.Model = string(model)
	}
	b.Classes, b.Dists, b.flat = classes, dists, flat
	return nil
}

// decode overwrites b with the batch in a TRowBatch payload, reusing b's
// storage. A refused payload leaves b empty.
func (b *RowBatch) decode(p []byte) error {
	r := payloadReader{p: p}
	rows := r.count("row count")
	cols := r.count("column count")
	switch {
	case r.bad != "":
	case (rows == 0) != (cols == 0):
		r.fail(fmt.Sprintf("%d rows of %d columns", rows, cols))
	case uint64(cols)*uint64(rows+1) > uint64(len(r.p)):
		// A column is its type byte and at least one byte per row.
		r.fail("rows × columns exceeds the payload")
	}
	if r.bad != "" {
		rows, cols = 0, 0
	}
	cells := resize(b.cells, rows*cols)
	for c := 0; c < cols && r.bad == ""; c++ {
		switch typ := r.tag(); typ {
		case colInt:
			for i := 0; i < rows; i++ {
				cells[i*cols+c] = Cell{I: r.varint()}
			}
		case colStr:
			b.decodeStringColumn(&r, cells, rows, cols, c)
		case colMixed:
			ints := 0
			for i := 0; i < rows; i++ {
				switch tag := r.tag(); tag {
				case colInt:
					cells[i*cols+c] = Cell{I: r.varint()}
					ints++
				case colStr:
					cells[i*cols+c] = Cell{Str: true, S: string(r.bytes("string length"))}
				default:
					r.fail(fmt.Sprintf("unknown cell tag %d", tag))
				}
			}
			if ints == 0 || ints == rows {
				r.fail("mixed column holds one kind of cell")
			}
		default:
			r.fail(fmt.Sprintf("unknown column type %d", typ))
		}
	}
	if err := r.finish(TRowBatch); err != nil {
		clear(cells) // drop the strings a half-decoded batch holds
		b.Rows, b.cells = b.Rows[:0], cells[:0]
		return err
	}
	b.Rows = resize(b.Rows, rows)
	for i := range b.Rows {
		b.Rows[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
	}
	b.cells = cells
	return nil
}

// decodeStringColumn reads column c's dictionary and codes into cells.
func (b *RowBatch) decodeStringColumn(r *payloadReader, cells []Cell, rows, cols, c int) {
	d := r.count("dictionary size")
	if d > rows {
		r.fail(fmt.Sprintf("dictionary of %d entries for %d rows", d, rows))
		return
	}
	dict := resize(b.dict, d)
	for i := range dict {
		dict[i] = string(r.bytes("string length"))
	}
	b.dict = dict
	if d > 1 && r.bad == "" {
		if b.seen == nil {
			b.seen = make(map[string]struct{}, d)
		}
		for _, s := range dict {
			b.seen[s] = struct{}{}
		}
		if len(b.seen) != d {
			r.fail("duplicate dictionary entry")
		}
		clear(b.seen)
	}
	if r.bad != "" {
		return
	}
	next := 0
	for i := 0; i < rows; i++ {
		code := r.uvarint()
		switch {
		case code >= uint64(d):
			r.fail(fmt.Sprintf("dictionary code %d of %d", code, d))
			return
		case code > uint64(next):
			r.fail("dictionary not numbered in order of first use")
			return
		case code == uint64(next):
			next++
		}
		cells[i*cols+c] = Cell{Str: true, S: dict[code]}
	}
	if next != d {
		r.fail("unused dictionary entry")
	}
}
