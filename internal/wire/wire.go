// Package wire defines the small length-prefixed protocol cmd/served speaks
// and the ccsql database/sql driver consumes. Every frame is a 4-byte
// big-endian payload length, a 1-byte frame type, and a JSON payload —
// trivially debuggable with a hex dump, stdlib-only, and streaming-friendly:
// query results flow back as a ResultHeader frame followed by any number of
// RowBatch frames and a terminating Done (or Error) frame, so the server
// never buffers a whole result set for the client.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Version is the protocol version negotiated by Hello/HelloAck.
const Version = 1

// MaxPayload bounds a frame's JSON payload; a peer announcing more is
// malformed (or hostile) and the connection should drop.
const MaxPayload = 16 << 20

// BatchRows is the number of result rows a server packs per RowBatch frame.
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

// Cell is one result value: an integer (the default) or a string.
type Cell struct {
	Str bool   `json:"t,omitempty"`
	I   int64  `json:"i,omitempty"`
	S   string `json:"s,omitempty"`
}

// RowBatch carries a slice of a result stream.
type RowBatch struct {
	Rows [][]Cell `json:"rows"`
}

// ScoredBatch carries a slice of a scoring result stream: the model that
// scored it, one predicted class label per row, and (when the client asked
// for them) the per-row class-count distributions, aligned with Classes.
type ScoredBatch struct {
	Model   string    `json:"model"`
	Classes []int32   `json:"classes"`
	Dists   [][]int64 `json:"dists,omitempty"`
}

// Done terminates a successful result stream with its total row count.
type Done struct {
	Rows int64 `json:"rows"`
}

// Error reports a failure.
type Error struct {
	Msg string `json:"msg"`
}

// WriteFrame encodes msg as the frame's JSON payload and writes the frame.
// A nil msg writes an empty payload.
func WriteFrame(w io.Writer, t Type, msg any) error {
	var payload []byte
	if msg != nil {
		var err error
		payload, err = json.Marshal(msg)
		if err != nil {
			return fmt.Errorf("wire: encode %s: %w", t, err)
		}
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: %s payload %d bytes exceeds limit", t, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame and returns its type and raw JSON payload.
func ReadFrame(r io.Reader) (Type, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
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
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// Unmarshal decodes a frame payload into msg with a wire-level error.
func Unmarshal(payload []byte, msg any) error {
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
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("wire: decode %s: %w", t, err)
	}
	return nil
}
