// Package wire defines the small length-prefixed protocol cmd/served speaks
// and the ccsql database/sql driver consumes. Every frame is
//
//	4 bytes   payload length, big-endian, at most MaxPayload
//	1 byte    frame Type
//	n bytes   payload
//
// and a result flows back as a ResultHeader frame, any number of batch frames
// and a terminating Done (or Error) frame — an Error may follow batches — so a
// server frames one batch at a time. The daemon cuts a fleet SCORE TABLE's
// batches behind the scan that is still producing the rows (serve.writeScored):
// that result is being drained before it is whole. Every other statement's
// rows are an engine.ResultSet the engine materialized, which serve.writeRows
// frames batch by batch.
//
// Control frames — Hello, HelloAck, Query, ResultHeader, Done, Error — carry a
// JSON payload: there are three or four of them per statement whatever the
// result size, and a hex dump of one reads as text. The two batch frames are
// where the bytes are, so they are binary column chunks (batch.go). In both,
// "uvarint" is an unsigned LEB128 integer, "varint" its zigzag signed form
// (encoding/binary's AppendUvarint / AppendVarint), and a decoder accepts only
// the shortest encoding of each:
//
//	TScoredBatch
//	  uvarint  len(model), then the model name's bytes
//	  uvarint  rows
//	  uvarint  k, the distribution width; 0 = the batch carries no distributions
//	  uvarint  class count (= rows), then that many varints, each an int32
//	  if k > 0:
//	  uvarint  distribution count (= rows × k), then that many varints, row-major
//
//	TRowBatch
//	  uvarint  rows
//	  uvarint  cols (0 only when rows is 0)
//	  per column, one type byte and then
//	    0 int:    rows varints
//	    1 string: uvarint dictionary size d, d × (uvarint length, bytes), rows
//	              uvarint codes < d; entries are distinct and numbered in order
//	              of first use, so a column has one encoding
//	    2 mixed:  rows × (tag byte 0, varint | tag byte 1, uvarint length, bytes);
//	              only for a column that holds both kinds
//
// Every count a payload announces is checked against the bytes that remain
// before anything is sized by it, a payload must be consumed exactly, and each
// violation is a *BatchError. A malformed batch ends its statement, not the
// connection: the frame around it was read whole, so the stream is still in
// step.
//
// Version 2 is the only version. The handshake compares versions for equality
// and either side refuses a mismatch; there is no negotiation and no second
// codec to fall back to.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Version is the protocol version Hello and HelloAck must agree on.
const Version = 2

// MaxPayload bounds a frame's payload; a peer announcing more is malformed (or
// hostile) and the connection should drop.
const MaxPayload = 16 << 20

// BatchRows is the number of result rows a server packs per batch frame.
const BatchRows = 256

// Type tags a frame.
type Type byte

const (
	// THello opens a connection: client → server, payload Hello.
	THello Type = 1 + iota
	// THelloAck acknowledges: server → client, payload HelloAck.
	THelloAck
	// TQuery submits one statement: client → server, payload Query.
	TQuery
	// TResultHeader starts a result stream: server → client, payload
	// ResultHeader.
	TResultHeader
	// TRowBatch carries up to BatchRows result rows, payload RowBatch.
	TRowBatch
	// TDone ends a successful result stream, payload Done.
	TDone
	// TError reports a failed statement (or handshake), payload Error. A
	// statement error ends its result stream but not the connection.
	TError
	// TGoodbye announces an orderly client disconnect, no payload.
	TGoodbye
	// TScoredBatch carries up to BatchRows scored rows of a SCORE result
	// stream, payload ScoredBatch. Streams end with TDone/TError like any
	// other result.
	TScoredBatch
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case THelloAck:
		return "hello-ack"
	case TQuery:
		return "query"
	case TResultHeader:
		return "result-header"
	case TRowBatch:
		return "row-batch"
	case TDone:
		return "done"
	case TError:
		return "error"
	case TGoodbye:
		return "goodbye"
	case TScoredBatch:
		return "scored-batch"
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// Hello is the client's opening frame.
type Hello struct {
	Version int `json:"version"`
}

// HelloAck is the server's handshake reply, describing the served table.
type HelloAck struct {
	Version int    `json:"version"`
	Table   string `json:"table"`
	Rows    int64  `json:"rows"`
}

// Query submits one statement of the internal/sqlparser grammar — SQL, SCORE
// TABLE or BUILD TREE; serve.Dispatcher picks its route from the parse.
type Query struct {
	SQL string `json:"sql"`
}

// ResultHeader announces a result stream's column names.
type ResultHeader struct {
	Cols []string `json:"cols"`
}

// Done terminates a successful result stream with its total row count.
type Done struct {
	Rows int64 `json:"rows"`
}

// Error reports a failure.
type Error struct {
	Msg string `json:"msg"`
}

// frameBuf is what one WriteFrame call borrows: the frame's bytes and the
// string-column dictionary scratch.
type frameBuf struct {
	buf   []byte
	dict  map[string]uint64
	codes []uint64
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// maxPooledFrame keeps an unusually large frame's buffer out of the pool, so
// what the pool retains stays a few ordinary frames.
const maxPooledFrame = 1 << 20

const headerLen = 5

// WriteFrame encodes msg as the frame's payload — a RowBatch or ScoredBatch
// (or a pointer to one) as binary column chunks, nil as an empty payload,
// anything else as JSON — and writes header and payload with one Write.
func WriteFrame(w io.Writer, t Type, msg any) error {
	fb := frameBufs.Get().(*frameBuf)
	buf := append(fb.buf[:0], 0, 0, 0, 0, byte(t))
	var err error
	switch m := msg.(type) {
	case nil:
	case *ScoredBatch:
		buf, err = m.appendTo(buf)
	case ScoredBatch:
		buf, err = m.appendTo(buf)
	case *RowBatch:
		buf, err = m.appendTo(buf, fb)
	case RowBatch:
		buf, err = m.appendTo(buf, fb)
	default:
		var js []byte
		if js, err = json.Marshal(msg); err != nil {
			err = fmt.Errorf("wire: encode %s: %w", t, err)
		}
		buf = append(buf, js...)
	}
	if n := len(buf) - headerLen; err == nil && n > MaxPayload {
		err = fmt.Errorf("wire: %s payload %d bytes exceeds limit", t, n)
	}
	if err == nil {
		binary.BigEndian.PutUint32(buf, uint32(len(buf)-headerLen))
		_, err = w.Write(buf)
	}
	if cap(buf) > maxPooledFrame {
		buf = nil
	}
	fb.buf = buf
	frameBufs.Put(fb)
	return err
}

// ReadFrame reads one frame and returns its type and raw payload, freshly
// allocated; a zero-length payload is nil.
func ReadFrame(r io.Reader) (Type, []byte, error) {
	return readFrame(r, make([]byte, headerLen))
}

// readFrame reads one frame through buf (at least headerLen long): the header
// lands in it, then the payload over the header when it fits.
func readFrame(r io.Reader, buf []byte) (Type, []byte, error) {
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("wire: frame payload %d bytes exceeds limit", n)
	}
	t := Type(hdr[4])
	if n == 0 {
		return t, nil, nil
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return t, buf, nil
}

// Reader reads one connection's frames through a read buffer and one payload
// buffer it reuses from frame to frame, so a long result stream costs a read
// per buffer-full and no allocation per frame. It is an io.Reader over the
// same buffered stream, so Expect can take it.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader wraps a connection's read side.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10), buf: make([]byte, headerLen, 4<<10)}
}

// Read reads buffered bytes of the underlying stream.
func (r *Reader) Read(p []byte) (int, error) { return r.br.Read(p) }

// ReadFrame reads the next frame. The payload is valid until the next call:
// decode it (Unmarshal copies what it keeps) before reading on.
func (r *Reader) ReadFrame() (Type, []byte, error) {
	t, payload, err := readFrame(r.br, r.buf)
	// Keep a buffer the frame had to grow, unless the frame was outsized.
	if cap(payload) > cap(r.buf) && cap(payload) <= maxPooledFrame {
		r.buf = payload
	}
	return t, payload, err
}

// Unmarshal decodes a frame payload into msg — a *RowBatch or *ScoredBatch
// from its binary form, overwriting the batch and reusing its storage;
// anything else from JSON.
func Unmarshal(payload []byte, msg any) error {
	switch m := msg.(type) {
	case *ScoredBatch:
		return m.decode(payload)
	case *RowBatch:
		return m.decode(payload)
	}
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("wire: decode payload: %w", err)
	}
	return nil
}

// Expect reads one frame and decodes it into msg, failing when the frame's
// type differs from want — except that a TError frame decodes into an error
// return regardless of want, so protocol errors surface as errors wherever
// the caller expected data. A nil msg skips decoding.
func Expect(r io.Reader, want Type, msg any) error {
	t, payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	if t == TError && want != TError {
		var e Error
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("wire: malformed error frame: %w", err)
		}
		return fmt.Errorf("%s", e.Msg)
	}
	if t != want {
		return fmt.Errorf("wire: got %s frame, want %s", t, want)
	}
	if msg == nil {
		return nil
	}
	return Unmarshal(payload, msg)
}
