package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// frameBytes hand-assembles a raw frame: length prefix, type byte, payload.
func frameBytes(n uint32, t byte, payload []byte) []byte {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], n)
	hdr[4] = t
	return append(hdr[:], payload...)
}

// FuzzDecodeFrame feeds arbitrary byte streams to ReadFrame and pins its
// contract: no panic, errors (never garbage) on truncated input and on
// length prefixes past the 16 MiB cap, zero-length payloads decode to a nil
// payload, and every successful read round-trips to exactly the bytes
// consumed.
func FuzzDecodeFrame(f *testing.F) {
	// Valid frames produced by the real encoder.
	var valid bytes.Buffer
	if err := WriteFrame(&valid, THello, Hello{Version: Version}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var q bytes.Buffer
	_ = WriteFrame(&q, TQuery, Query{SQL: "SELECT COUNT(*) FROM cases"})
	f.Add(q.Bytes())
	// Zero-length payload (nil msg writes no payload bytes).
	var zero bytes.Buffer
	_ = WriteFrame(&zero, TGoodbye, nil)
	f.Add(zero.Bytes())
	// Truncations: empty, partial header, header promising absent payload.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add(frameBytes(10, byte(TDone), []byte("short")))
	// Length prefix exactly at, one past, and far past the cap.
	f.Add(frameBytes(MaxPayload, byte(TRowBatch), nil))
	f.Add(frameBytes(MaxPayload+1, byte(TRowBatch), nil))
	f.Add(frameBytes(^uint32(0), 0xff, nil))
	// Two frames back to back.
	f.Add(append(append([]byte{}, zero.Bytes()...), valid.Bytes()...))
	// Batch frames. Well-formed: a scored batch with distributions and a row
	// batch with an integer, a string and a mixed column.
	var sb bytes.Buffer
	_ = WriteFrame(&sb, TScoredBatch, ScoredBatch{
		Model:   "m1",
		Classes: []int32{0, 1, 1},
		Dists:   [][]int64{{5, 1}, {0, 9}, {2, 2}},
	})
	f.Add(sb.Bytes())
	var rb bytes.Buffer
	_ = WriteFrame(&rb, TRowBatch, RowBatch{Rows: [][]Cell{
		{{I: -7}, {Str: true, S: "a"}, {I: 1}},
		{{I: 1 << 40}, {Str: true, S: "a"}, {Str: true, S: "é"}},
	}})
	f.Add(rb.Bytes())
	// Malformed, each inside a well-formed frame: a truncated chunk (the
	// frame ends mid-distribution), a dictionary code out of range, a class
	// column that disagrees with the row count, an over-long varint.
	frame := func(t Type, p []byte) []byte { return frameBytes(uint32(len(p)), byte(t), p) }
	f.Add(frame(TScoredBatch, sb.Bytes()[headerLen:sb.Len()-3]))
	f.Add(frame(TRowBatch, payload(2, 1, []byte{colStr}, 1, 1, "a", 0, 1)))
	f.Add(frame(TScoredBatch, payload(1, "m", 2, 0, 1, int64(0))))
	f.Add(frame(TScoredBatch, payload(1, "m", []byte{0x81, 0x00}, 0, 1, int64(0))))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadFrame(r)
		if err != nil {
			// Error cases must be the documented ones: truncation or the
			// payload cap. Anything else is a new failure mode.
			if err != io.EOF && err != io.ErrUnexpectedEOF &&
				!strings.Contains(err.Error(), "exceeds limit") {
				t.Fatalf("unexpected ReadFrame error class: %v", err)
			}
			if len(data) >= 5 {
				if n := binary.BigEndian.Uint32(data[:4]); n <= MaxPayload && len(data) >= 5+int(n) {
					t.Fatalf("ReadFrame errored (%v) on a complete in-cap frame (len=%d)", err, n)
				}
			}
			return
		}
		n := binary.BigEndian.Uint32(data[:4])
		if n > MaxPayload {
			t.Fatalf("ReadFrame accepted %d-byte payload past the %d cap", n, MaxPayload)
		}
		if int(n) != len(payload) {
			t.Fatalf("payload length %d, header promised %d", len(payload), n)
		}
		if n == 0 && payload != nil {
			t.Fatalf("zero-length payload decoded non-nil: %q", payload)
		}
		// Round-trip: re-assembling the frame must reproduce exactly the
		// consumed prefix of the input.
		consumed := 5 + int(n)
		if got := frameBytes(n, byte(typ), payload); !bytes.Equal(got, data[:consumed]) {
			t.Fatalf("re-encoded frame differs from consumed input:\n got %x\nwant %x", got, data[:consumed])
		}
		if r.Len() != len(data)-consumed {
			t.Fatalf("ReadFrame consumed %d bytes, want %d", len(data)-r.Len(), consumed)
		}
		// Unmarshal into the matching message type must never panic; errors
		// are fine (arbitrary payloads are rarely valid). A batch payload is
		// held to the batch codec's whole contract.
		switch typ {
		case THello:
			_ = Unmarshal(payload, &Hello{})
		case TRowBatch, TScoredBatch:
			checkBatchPayload(t, typ, payload)
		case TError:
			_ = Unmarshal(payload, &Error{})
		}
	})
}

// checkBatchPayload decodes an arbitrary payload as a batch of the given type
// and pins the codec's contract: no panic; a refusal is a *BatchError and
// leaves the batch empty; an accepted batch is rectangular, was not sized
// beyond a constant multiple of the payload, and re-encodes to exactly the
// bytes it came from (so there is one encoding per batch and every check the
// decoder skipped would show as a difference).
func checkBatchPayload(t *testing.T, typ Type, payload []byte) {
	var msg any
	var rows, footprint int
	var sb ScoredBatch
	var rb RowBatch
	var err error
	if typ == TScoredBatch {
		err = Unmarshal(payload, &sb)
		msg, rows = &sb, len(sb.Classes)+len(sb.Dists)
		footprint = len(sb.Model) + 4*cap(sb.Classes) + 24*cap(sb.Dists) + 8*cap(sb.flat)
		for _, d := range sb.Dists {
			if len(sb.Dists) != len(sb.Classes) || len(d) != len(sb.Dists[0]) {
				t.Fatalf("accepted a misaligned scored batch: %d classes, %d dists", len(sb.Classes), len(sb.Dists))
			}
		}
	} else {
		err = Unmarshal(payload, &rb)
		msg, rows = &rb, len(rb.Rows)
		footprint = 24*cap(rb.Rows) + 32*cap(rb.cells) + 16*cap(rb.dict)
		for _, cell := range rb.cells {
			footprint += len(cell.S)
		}
	}
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) || be.Frame != typ {
			t.Fatalf("refusal is not a %s BatchError: %v", typ, err)
		}
		if rows != 0 {
			t.Fatalf("refused payload left %d rows in the batch", rows)
		}
		return
	}
	// 56 bytes is the most one payload byte buys: a one-byte cell in a
	// one-column batch is a 32-byte Cell and a 24-byte row header.
	if footprint > 64*len(payload) {
		t.Fatalf("%d-byte payload decoded into %d bytes", len(payload), footprint)
	}
	var again bytes.Buffer
	if err := WriteFrame(&again, typ, msg); err != nil {
		t.Fatalf("accepted batch does not re-encode: %v", err)
	}
	if !bytes.Equal(again.Bytes()[headerLen:], payload) {
		t.Fatalf("accepted payload is not the batch's encoding:\n got %x\nwant %x", payload, again.Bytes()[headerLen:])
	}
}

// FuzzDecodeBatch feeds arbitrary payloads straight to the two batch
// decoders, skipping the frame header FuzzDecodeFrame has to get past first.
func FuzzDecodeBatch(f *testing.F) {
	// Small seeds: the engine minimizes what it derives from them, for up to a
	// minute apiece when they are frame-sized.
	f.Add(true, encode(f, TScoredBatch, &ScoredBatch{Model: "m", Classes: []int32{0, 1}, Dists: [][]int64{{900, 7}, {0, 4100}}}))
	f.Add(true, encode(f, TScoredBatch, &ScoredBatch{Model: "labels only", Classes: []int32{3, -1, 3}}))
	f.Add(true, encode(f, TScoredBatch, &ScoredBatch{}))
	f.Add(false, encode(f, TRowBatch, &RowBatch{Rows: [][]Cell{{{I: -5}, {Str: true, S: "a"}}, {{I: 300}, {Str: true, S: "b"}}, {{I: 0}, {Str: true, S: "a"}}}}))
	f.Add(false, encode(f, TRowBatch, &RowBatch{}))
	f.Add(false, encode(f, TRowBatch, &RowBatch{Rows: [][]Cell{{{I: 1}}, {{Str: true, S: "one"}}}}))
	f.Add(true, payload(1, "m", 1<<40, 0, 0))                                        // hostile row count
	f.Add(true, payload(1, "m", 2, 2, 2, int64(0), int64(1), 3, int64(5), int64(6))) // dists disagree with rows × k
	f.Add(true, payload(1, "m", 1, 0, 1, int64(1<<31)))                              // class outside int32
	f.Add(false, payload(2, 1, []byte{colStr}, 1, 1, "a", 0, 1))                     // code out of range
	f.Add(false, payload(2, 1, []byte{colStr}, 2, 1, "a", 1, "a", 0, 1))             // duplicate entry
	f.Add(false, payload(1, 1, []byte{colInt, 0x80, 0x00}))                          // over-long varint
	f.Add(false, payload(1<<30, 1<<30))                                              // rows × cols overflow bait
	f.Fuzz(func(t *testing.T, scored bool, payload []byte) {
		if scored {
			checkBatchPayload(t, TScoredBatch, payload)
		} else {
			checkBatchPayload(t, TRowBatch, payload)
		}
	})
}
