package ccsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// rawFrame hand-assembles a frame around a payload the encoder would refuse
// to produce.
func rawFrame(t wire.Type, payload []byte) []byte {
	hdr := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(append(hdr, byte(t)), payload...)
}

// fakeServer speaks just enough of the wire protocol to exercise the driver's
// result-stream handling: every query answers with a one-row batch, and
// queries containing "boom" end the stream with a statement error instead of
// Done.
func fakeServer(t *testing.T) string { return fakeServerVersion(t, wire.Version) }

// fakeServerVersion is fakeServer acknowledging the handshake with the given
// protocol version.
func fakeServerVersion(t *testing.T, version int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				var hello wire.Hello
				if err := wire.Expect(nc, wire.THello, &hello); err != nil {
					return
				}
				if err := wire.WriteFrame(nc, wire.THelloAck, wire.HelloAck{Version: version, Table: "t"}); err != nil {
					return
				}
				for {
					typ, payload, err := wire.ReadFrame(nc)
					if err != nil || typ == wire.TGoodbye {
						return
					}
					if typ != wire.TQuery {
						return
					}
					var q wire.Query
					if err := wire.Unmarshal(payload, &q); err != nil {
						return
					}
					switch {
					case strings.Contains(q.SQL, "scorebad"):
						// A scored batch whose distribution chunk (four counts)
						// disagrees with its one row of width two: the driver
						// must reject it with a typed error, not index out of
						// range. The encoder refuses to write such a batch, so
						// the payload is assembled by hand: model "m", 1 row,
						// k = 2, 1 class (0), 4 counts (1, 2, 3, 4 zigzagged).
						wire.WriteFrame(nc, wire.TResultHeader, wire.ResultHeader{Cols: []string{"class", "c0", "c1"}})
						nc.Write(rawFrame(wire.TScoredBatch, []byte{1, 'm', 1, 2, 1, 0, 4, 2, 4, 6, 8}))
						wire.WriteFrame(nc, wire.TDone, wire.Done{Rows: 1})
					case strings.Contains(q.SQL, "stall"):
						// One scored batch, then silence until the client
						// hangs up: only a cancelled context ends this stream.
						// The next frame read is the client's cancel.
						wire.WriteFrame(nc, wire.TResultHeader, wire.ResultHeader{Cols: []string{"class"}})
						wire.WriteFrame(nc, wire.TScoredBatch, wire.ScoredBatch{Model: "m", Classes: []int32{4}})
						if typ, _, err := wire.ReadFrame(nc); err == nil && typ == wire.TCancel {
							stallCancels <- struct{}{}
						}
						io.Copy(io.Discard, nc)
						return
					case strings.Contains(q.SQL, "scoreboom"):
						// A statement error after the first scored batch:
						// mid-stream failure on the scoring path.
						wire.WriteFrame(nc, wire.TResultHeader, wire.ResultHeader{Cols: []string{"class", "c0", "c1"}})
						wire.WriteFrame(nc, wire.TScoredBatch, wire.ScoredBatch{Model: "m", Classes: []int32{1}, Dists: [][]int64{{0, 5}}})
						wire.WriteFrame(nc, wire.TError, wire.Error{Msg: "scoring failed mid-stream"})
					case strings.Contains(q.SQL, "score"):
						// A healthy scored stream split over two batches,
						// the second class-only (no distributions).
						wire.WriteFrame(nc, wire.TResultHeader, wire.ResultHeader{Cols: []string{"class"}})
						wire.WriteFrame(nc, wire.TScoredBatch, wire.ScoredBatch{Model: "m", Classes: []int32{0, 1}})
						wire.WriteFrame(nc, wire.TScoredBatch, wire.ScoredBatch{Model: "m", Classes: []int32{1}})
						wire.WriteFrame(nc, wire.TDone, wire.Done{Rows: 3})
					case strings.Contains(q.SQL, "boom"):
						wire.WriteFrame(nc, wire.TResultHeader, wire.ResultHeader{Cols: []string{"a"}})
						wire.WriteFrame(nc, wire.TRowBatch, wire.RowBatch{Rows: [][]wire.Cell{{{I: 1}}}})
						wire.WriteFrame(nc, wire.TError, wire.Error{Msg: "boom"})
					default:
						wire.WriteFrame(nc, wire.TResultHeader, wire.ResultHeader{Cols: []string{"a"}})
						wire.WriteFrame(nc, wire.TRowBatch, wire.RowBatch{Rows: [][]wire.Cell{{{I: 1}}}})
						wire.WriteFrame(nc, wire.TDone, wire.Done{Rows: 1})
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestConnReusableAfterStatementError pins the Rows.Close drain contract: a
// statement error arriving mid-stream must still clear the connection's
// in-rows state, so the next statement on the same connection runs instead
// of failing with "connection busy". (Before the fix, Close returned early
// on the TError frame and poisoned the connection.)
func TestConnReusableAfterStatementError(t *testing.T) {
	addr := fakeServer(t)
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One pooled connection, so the second statement must reuse the first's.
	db.SetMaxOpenConns(1)

	rows, err := db.Query("SELECT boom")
	if err != nil {
		t.Fatalf("query start: %v", err)
	}
	for rows.Next() {
		var v int64
		if err := rows.Scan(&v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("rows.Err() = %v, want the boom statement error", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("rows.Close: %v", err)
	}

	got := 0
	rows2, err := db.Query("SELECT ok")
	if err != nil {
		t.Fatalf("second query on the same connection: %v", err)
	}
	defer rows2.Close()
	for rows2.Next() {
		got++
	}
	if err := rows2.Err(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("second query returned %d rows, want 1", got)
	}
}

// TestScoredStreamLazyBatches drives the driver below database/sql to pin
// that scored rows stream batch by batch: the first Next reads only the first
// frame, its second row comes out of that same frame, and the second frame is
// read when the first runs dry.
func TestScoredStreamLazyBatches(t *testing.T) {
	addr := fakeServer(t)
	conn, err := Driver{}.Open(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dr, err := conn.(*Conn).QueryContext(context.Background(), "SELECT score", nil)
	if err != nil {
		t.Fatal(err)
	}
	r := dr.(*rows)
	if r.frames != 0 {
		t.Fatalf("%d batch frames read before the first Next", r.frames)
	}

	dest := make([]driver.Value, 1)
	if err := r.Next(dest); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if r.frames != 1 || r.done {
		t.Fatalf("after the first Next: %d batch frames read, done=%v; want the first frame only", r.frames, r.done)
	}
	want := []int64{0, 1, 1}
	got := []int64{dest[0].(int64)}
	for {
		err := r.Next(dest)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, dest[0].(int64))
		if wantFrames := (len(got) + 1) / 2; r.frames != wantFrames {
			t.Fatalf("after %d rows: %d batch frames read, want %d", len(got), r.frames, wantFrames)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: class %d, want %d", i, got[i], want[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("rows.Close: %v", err)
	}
}

// TestScoredStreamMidStreamError pins that a statement error arriving after
// a scored batch surfaces through rows.Err and leaves the pooled connection
// reusable — the scoring dual of TestConnReusableAfterStatementError.
func TestScoredStreamMidStreamError(t *testing.T) {
	addr := fakeServer(t)
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	rows, err := db.Query("SELECT scoreboom")
	if err != nil {
		t.Fatalf("query start: %v", err)
	}
	n := 0
	for rows.Next() {
		var class, c0, c1 int64
		if err := rows.Scan(&class, &c0, &c1); err != nil {
			t.Fatal(err)
		}
		if class != 1 || c0 != 0 || c1 != 5 {
			t.Fatalf("scored row = (%d, %d, %d), want (1, 0, 5)", class, c0, c1)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("read %d rows before the error, want 1", n)
	}
	if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "scoring failed mid-stream") {
		t.Fatalf("rows.Err() = %v, want the mid-stream scoring error", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("rows.Close: %v", err)
	}
	if _, err := db.Exec("SELECT ok"); err != nil {
		t.Fatalf("connection poisoned after scored-stream error: %v", err)
	}
}

// TestScoredStreamMismatchedDists pins the typed rejection of a scored batch
// whose distribution chunk disagrees with rows × k — a *wire.BatchError that
// ends the statement — and that the malformed frame does not poison the
// connection: the rest of the stream is drained and the next statement runs
// on the same connection.
func TestScoredStreamMismatchedDists(t *testing.T) {
	addr := fakeServer(t)
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	_, err = db.Exec("SELECT scorebad")
	var be *wire.BatchError
	if !errors.As(err, &be) || !strings.Contains(err.Error(), "4 distribution counts for 1 rows of width 2") {
		t.Fatalf("exec error = %v, want the mismatched-distributions BatchError", err)
	}
	rows, err := db.Query("SELECT scorebad")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("a row came out of the refused batch")
	}
	if err := rows.Err(); !errors.As(err, &be) {
		t.Fatalf("rows.Err() = %v, want the BatchError", err)
	}
	rows.Close()
	if _, err := db.Exec("SELECT ok"); err != nil {
		t.Fatalf("connection poisoned after malformed scored batch: %v", err)
	}
}

// TestExecDrainsScoredStream pins that rows.Close (via Exec) drains the new
// TScoredBatch frame type to the stream's end.
func TestExecDrainsScoredStream(t *testing.T) {
	addr := fakeServer(t)
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec("SELECT score"); err != nil {
		t.Fatalf("exec over scored stream: %v", err)
	}
	if _, err := db.Exec("SELECT ok"); err != nil {
		t.Fatalf("connection not reusable after drained scored stream: %v", err)
	}
}

// TestCloseReportsStatementError pins that an undrained result set closed
// early still surfaces the statement error while leaving the connection
// reusable.
func TestCloseReportsStatementError(t *testing.T) {
	addr := fakeServer(t)
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	// Exec drains via rows.Close without reading any row first.
	if _, err := db.Exec("SELECT boom"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("exec error = %v, want boom", err)
	}
	if _, err := db.Exec("SELECT ok"); err != nil {
		t.Fatalf("connection not reusable after drained statement error: %v", err)
	}
}

// TestHandshakeVersionMismatch: a server that acknowledges another protocol
// version fails Open; there is no older codec to fall back to.
func TestHandshakeVersionMismatch(t *testing.T) {
	addr := fakeServerVersion(t, 1)
	_, err := Driver{}.Open(addr)
	if err == nil || !strings.Contains(err.Error(), "handshake") ||
		!strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "driver 2") {
		t.Fatalf("Open against a v1 ack: %v, want a handshake error naming both versions", err)
	}
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("Ping against a v1 ack: %v, want the handshake error", err)
	}
}

// stallCancels receives one value per TCancel frame a stalled stream of
// fakeServer read.
var stallCancels = make(chan struct{}, 4)

// TestContextCancelUnblocksStream: a context cancelled while the driver is
// blocked reading a stalled stream unblocks the read, surfaces the context's
// error, sends the server a TCancel and retires the connection, so the pool
// opens a fresh one for the next statement.
func TestContextCancelUnblocksStream(t *testing.T) {
	addr := fakeServer(t)

	// Below database/sql: Next itself must return, nothing closes it for us.
	conn, err := Driver{}.Open(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := conn.(*Conn)
	ctx, cancel := context.WithCancel(context.Background())
	dr, err := c.QueryContext(ctx, "SELECT stall", nil)
	if err != nil {
		t.Fatal(err)
	}
	dest := make([]driver.Value, 1)
	if err := dr.Next(dest); err != nil || dest[0].(int64) != 4 {
		t.Fatalf("first row: %v, %v", dest[0], err)
	}
	next := make(chan error, 1)
	go func() { next <- dr.Next(dest) }()
	cancel()
	select {
	case err := <-next:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next still blocked 10 s after its context was cancelled")
	}
	select {
	case <-stallCancels:
	case <-time.After(10 * time.Second):
		t.Fatal("the server got no TCancel after the statement's context ended")
	}
	if err := dr.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
	if c.IsValid() {
		t.Fatal("connection still valid with an undrained stream on it")
	}
	if _, err := c.QueryContext(context.Background(), "SELECT ok", nil); err != driver.ErrBadConn {
		t.Fatalf("query on the retired connection = %v, want driver.ErrBadConn", err)
	}

	// Through database/sql: a deadline this time, and the one-connection pool
	// must replace the retired connection.
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	tctx, tcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer tcancel()
	rows, err := db.QueryContext(tctx, "SELECT stall")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, context.DeadlineExceeded) || n != 1 {
		t.Fatalf("stalled stream: %d rows, err %v; want 1 row and context.DeadlineExceeded", n, err)
	}
	rows.Close()
	if _, err := db.Exec("SELECT ok"); err != nil {
		t.Fatalf("statement after a cancelled one: %v", err)
	}
	// A context that is already over never reaches the wire.
	if _, err := db.ExecContext(tctx, "SELECT ok"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exec on a spent context = %v", err)
	}
	if _, err := db.Exec("SELECT ok"); err != nil {
		t.Fatalf("statement after a refused one: %v", err)
	}
}
