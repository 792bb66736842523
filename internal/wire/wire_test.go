package wire

import (
	"bytes"
	"strings"
	"testing"
)

// TestFrameRoundTrip writes each frame type and reads it back.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		t   Type
		msg any
	}{
		{THello, Hello{Version: Version}},
		{THelloAck, HelloAck{Version: Version, Table: "cases", Rows: 42}},
		{TQuery, Query{SQL: "SELECT COUNT(*) FROM cases"}},
		{TResultHeader, ResultHeader{Cols: []string{"a", "b"}}},
		{TRowBatch, RowBatch{Rows: [][]Cell{{{I: 7}, {Str: true, S: "x"}}}}},
		{TDone, Done{Rows: 1}},
		{TError, Error{Msg: "boom"}},
		{TGoodbye, nil},
		{TCancel, nil},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f.t, f.msg); err != nil {
			t.Fatalf("write %s: %v", f.t, err)
		}
	}

	for _, f := range frames {
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", f.t, err)
		}
		if typ != f.t {
			t.Fatalf("got %s frame, want %s", typ, f.t)
		}
		if f.msg == nil {
			if len(payload) != 0 {
				t.Fatalf("%s: want empty payload, got %d bytes", f.t, len(payload))
			}
			continue
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, f.t, f.msg); err != nil {
			t.Fatalf("re-encode %s: %v", f.t, err)
		}
		_, p2, err := ReadFrame(&again)
		if err != nil {
			t.Fatalf("re-read %s: %v", f.t, err)
		}
		if !bytes.Equal(payload, p2) {
			t.Fatalf("%s: payload not stable across round trips", f.t)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after all frames read", buf.Len())
	}
}

// TestCellRoundTrip checks both cell variants survive a batch round trip, in
// an all-integer, an all-string and a mixed column.
func TestCellRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := RowBatch{Rows: [][]Cell{
		{{I: -3}, {Str: true, S: ""}, {I: 0}},
		{{I: 1 << 40}, {Str: true, S: "hello"}, {Str: true, S: "x"}},
	}}
	if err := WriteFrame(&buf, TRowBatch, in); err != nil {
		t.Fatal(err)
	}
	_, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out RowBatch
	if err := Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || len(out.Rows[0]) != 3 || len(out.Rows[1]) != 3 {
		t.Fatalf("shape mismatch: %+v", out.Rows)
	}
	if out.Rows[0][0].I != -3 || out.Rows[0][1].Str != true || out.Rows[1][1].S != "hello" || out.Rows[1][0].I != 1<<40 ||
		out.Rows[0][2].Str || out.Rows[1][2].S != "x" {
		t.Fatalf("values mismatch: %+v", out.Rows)
	}
}

// TestExpectErrorFrame: Expect converts a TError frame into a Go error even
// when the caller wanted data.
func TestExpectErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TError, Error{Msg: "no such table"}); err != nil {
		t.Fatal(err)
	}
	var hdr ResultHeader
	err := Expect(&buf, TResultHeader, &hdr)
	if err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("want the server error surfaced, got %v", err)
	}
}

// TestExpectWrongType: a non-error frame of the wrong type is a protocol
// error naming both types.
func TestExpectWrongType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TDone, Done{}); err != nil {
		t.Fatal(err)
	}
	err := Expect(&buf, TResultHeader, nil)
	if err == nil || !strings.Contains(err.Error(), "done") || !strings.Contains(err.Error(), "result-header") {
		t.Fatalf("want type-mismatch error, got %v", err)
	}
}

// TestOversizePayload: writing a payload over MaxPayload fails, and a header
// announcing one is rejected before allocation.
func TestOversizePayload(t *testing.T) {
	big := RowBatch{Rows: [][]Cell{{{Str: true, S: strings.Repeat("x", MaxPayload)}}}}
	if err := WriteFrame(&bytes.Buffer{}, TRowBatch, big); err == nil {
		t.Fatal("want write error for oversized payload")
	}

	hdr := []byte{0xff, 0xff, 0xff, 0xff, byte(TRowBatch)}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("want read error for oversized announced payload")
	}
}

// TestShortFrame: a truncated payload is an I/O error, not a hang or panic.
func TestShortFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TQuery, Query{SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("want error on truncated frame")
	}
}
