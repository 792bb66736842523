// Package ccsql is a database/sql driver for the cmd/served wire protocol:
// register-on-import in the stdlib manner, so
//
//	import _ "repro/driver"
//	db, _ := sql.Open("ccsql", "127.0.0.1:7744")
//	rows, _ := db.Query("SELECT class, COUNT(*) FROM census GROUP BY class")
//
// works with stock database/sql. The DSN is the daemon's TCP address. The
// driver speaks plain statements only (no placeholder parameters, no
// transactions — the served engine is read-mostly and autocommit), and
// streams result rows batch by batch: one frame at a time is decoded into
// column storage the connection reuses, and Next hands database/sql values
// straight out of it, so a large result set neither buffers nor expands on
// the client. A statement's context is honoured while it waits and while it
// streams: cancellation unblocks the read, sends the daemon a TCancel for the
// statement, returns the context's error and retires the connection.
package ccsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

func init() {
	sql.Register("ccsql", &Driver{})
}

// Driver implements driver.Driver.
type Driver struct{}

// Open dials the daemon and performs the protocol handshake.
func (Driver) Open(dsn string) (driver.Conn, error) {
	nc, err := net.Dial("tcp", dsn)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, fr: wire.NewReader(nc)}
	if err := c.handshake(); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// handshake sends the client's Hello and checks the daemon's acknowledgement.
func (c *Conn) handshake() error {
	if err := wire.WriteFrame(c.nc, wire.THello, wire.Hello{Version: wire.Version}); err != nil {
		return err
	}
	if err := wire.Expect(c.fr, wire.THelloAck, &c.ack); err != nil {
		return fmt.Errorf("ccsql: handshake: %w", err)
	}
	if c.ack.Version != wire.Version {
		return fmt.Errorf("ccsql: handshake: server speaks protocol version %d, this driver %d", c.ack.Version, wire.Version)
	}
	return nil
}

// Conn is one protocol connection. database/sql guarantees single-goroutine
// use.
type Conn struct {
	nc     net.Conn
	fr     *wire.Reader
	ack    wire.HelloAck
	inRows bool // a Rows result stream is still draining
	bad    bool // the stream is out of step or its deadline is spent: retire it

	// The current frame's rows, decoded in place frame after frame.
	scored wire.ScoredBatch
	cells  wire.RowBatch

	// boxed is a direct-mapped cache of int64s already converted to
	// driver.Value. Handing database/sql a count costs one 8-byte allocation
	// (the runtime only pre-boxes values below 256), and a scored stream
	// repeats the same few leaf histograms row after row.
	boxed [boxedSlots]driver.Value
}

// boxedBits sizes Conn.boxed: 1024 slots (16 KiB), several times the distinct
// counts a tree of a hundred-odd leaves streams, so few of them share a slot.
const (
	boxedBits  = 10
	boxedSlots = 1 << boxedBits
)

// box returns n as a driver.Value, reusing the boxed copy of an earlier call
// when its slot still holds n.
func (c *Conn) box(n int64) driver.Value {
	slot := &c.boxed[uint64(n)*0x9E3779B97F4A7C15>>(64-boxedBits)] // Fibonacci hashing
	if v, ok := (*slot).(int64); !ok || v != n {
		*slot = n
	}
	return *slot
}

var (
	_ driver.QueryerContext = (*Conn)(nil)
	_ driver.ExecerContext  = (*Conn)(nil)
	_ driver.Validator      = (*Conn)(nil)
)

// Table returns the served table's name, from the handshake.
func (c *Conn) Table() string { return c.ack.Table }

// IsValid tells database/sql's pool whether the connection may be reused.
func (c *Conn) IsValid() bool { return !c.bad }

// Prepare returns a statement handle; the protocol has no server-side
// prepare, so this is client-side bookkeeping only.
func (c *Conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c, query: query}, nil
}

// Close sends an orderly goodbye, unless the connection is retired, and
// closes the connection.
func (c *Conn) Close() error {
	if !c.bad {
		wire.WriteFrame(c.nc, wire.TGoodbye, nil)
	}
	return c.nc.Close()
}

// cancel is run when a statement's context ends. A blocked read does not see
// the context, but a spent deadline it does: the read fails first, so the
// TCancel write that asks the daemon to cancel the statement cannot hold it
// up. Then the write side is spent too, which retires the connection.
func (c *Conn) cancel() {
	c.nc.SetReadDeadline(time.Unix(1, 0))
	wire.WriteFrame(c.nc, wire.TCancel, nil)
	c.nc.SetWriteDeadline(time.Unix(1, 0))
}

// Begin is unsupported: the served engine is autocommit.
func (c *Conn) Begin() (driver.Tx, error) {
	return nil, errors.New("ccsql: transactions are not supported")
}

// QueryContext runs the statement and returns its streaming result rows.
func (c *Conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	r, err := c.query(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ExecContext runs the statement and drains its result stream.
func (c *Conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	r, err := c.query(ctx, query, args)
	if err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// stmt is a prepared statement handle: the statement text, run through the
// connection each time.
type stmt struct {
	c     *Conn
	query string
}

// Close releases the handle (nothing is held server-side).
func (s *stmt) Close() error { return nil }

// NumInput returns 0: the protocol has no placeholder parameters, so any
// bound argument is rejected by database/sql before reaching the wire.
func (s *stmt) NumInput() int { return 0 }

// Exec runs the statement and drains its result stream.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.c.ExecContext(context.Background(), s.query, nil)
}

// Query runs the statement and returns its streaming result rows.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.c.QueryContext(context.Background(), s.query, nil)
}

// query sends one statement and reads its result header.
func (c *Conn) query(ctx context.Context, query string, args []driver.NamedValue) (*rows, error) {
	if len(args) > 0 {
		return nil, errors.New("ccsql: placeholder parameters are not supported")
	}
	if c.bad {
		return nil, driver.ErrBadConn
	}
	if c.inRows {
		return nil, errors.New("ccsql: connection busy with an open result set")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &rows{c: c, ctx: ctx}
	c.inRows = true
	if err := wire.WriteFrame(c.nc, wire.TQuery, wire.Query{SQL: query}); err != nil {
		return nil, r.fail(err)
	}
	if ctx.Done() != nil {
		// Armed once the query is out, so a TCancel never cuts into it.
		r.stop = context.AfterFunc(ctx, c.cancel)
	}
	t, payload, err := c.fr.ReadFrame()
	if err != nil {
		return nil, r.fail(err)
	}
	switch t {
	case wire.TResultHeader:
		var hdr wire.ResultHeader
		if err := wire.Unmarshal(payload, &hdr); err != nil {
			return nil, r.fail(err)
		}
		r.cols = hdr.Cols
		return r, nil
	case wire.TError:
		return nil, r.statementError(payload)
	}
	return nil, r.fail(fmt.Errorf("ccsql: got %s frame, want %s", t, wire.TResultHeader))
}

// rows streams one statement's result set.
type rows struct {
	c    *Conn
	ctx  context.Context
	stop func() bool // detaches the context from the connection's deadline
	cols []string

	scored bool // the current frame is c.scored, not c.cells
	n, i   int  // rows in the current frame, and the next to hand out
	frames int  // batch frames read so far
	done   bool
}

// Columns returns the result's column names.
func (r *rows) Columns() []string { return r.cols }

// finish ends the stream with the connection in step: the next statement may
// use it, unless the context already fired and spent its deadline.
func (r *rows) finish() {
	r.done, r.n, r.i = true, 0, 0
	r.c.inRows = false
	if r.stop != nil && !r.stop() {
		r.c.bad = true
	}
	r.stop = nil
}

// fail ends the stream on a transport or protocol failure. What remains of
// the statement's frames is unread (or unreadable), so the connection is
// retired. A failure the context caused is reported as the context's error.
func (r *rows) fail(err error) error {
	r.finish()
	r.c.bad = true
	if cerr := r.ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// statementError ends the stream on the server's TError frame.
func (r *rows) statementError(payload []byte) error {
	var e wire.Error
	if err := wire.Unmarshal(payload, &e); err != nil {
		return r.fail(err)
	}
	r.finish()
	return errors.New(e.Msg)
}

// Close drains any frames the caller has not consumed, so the connection is
// immediately reusable for the next statement. The stream is drained to its
// end even when a statement error arrives mid-stream or a batch is refused:
// returning early would leave the rest of the stream to the next statement.
func (r *rows) Close() error {
	var ferr error
	for !r.done {
		if err := r.fetch(); err != nil && err != io.EOF && ferr == nil {
			ferr = err
		}
	}
	return ferr
}

// fetch reads the next frame of the stream and decodes a batch in place.
func (r *rows) fetch() error {
	if err := r.ctx.Err(); err != nil {
		return r.fail(err)
	}
	t, payload, err := r.c.fr.ReadFrame()
	if err != nil {
		return r.fail(err)
	}
	r.n, r.i = 0, 0
	switch t {
	case wire.TRowBatch:
		r.frames++
		// A batch the codec refuses fails its statement only: the frame was
		// read whole, so the error surfaces and the stream stays drainable.
		if err := wire.Unmarshal(payload, &r.c.cells); err != nil {
			return err
		}
		r.scored, r.n = false, len(r.c.cells.Rows)
		return nil
	case wire.TScoredBatch:
		r.frames++
		if err := wire.Unmarshal(payload, &r.c.scored); err != nil {
			return err
		}
		r.scored, r.n = true, len(r.c.scored.Classes)
		return nil
	case wire.TDone:
		r.finish()
		return io.EOF
	case wire.TError:
		return r.statementError(payload)
	}
	return r.fail(fmt.Errorf("ccsql: unexpected %s frame in result stream", t))
}

// Next fills dest with the next row, or returns io.EOF at stream end.
func (r *rows) Next(dest []driver.Value) error {
	for r.i >= r.n {
		if r.done {
			return io.EOF
		}
		if err := r.fetch(); err != nil {
			return err
		}
	}
	i := r.i
	r.i++
	if r.scored {
		// The announced header is the class label, then the per-class counts
		// when the stream carries them.
		var dist []int64
		if b := &r.c.scored; len(b.Dists) > 0 {
			dist = b.Dists[i]
		}
		if 1+len(dist) != len(dest) {
			return fmt.Errorf("ccsql: row has %d values, want %d", 1+len(dist), len(dest))
		}
		dest[0] = int64(r.c.scored.Classes[i])
		for j, n := range dist {
			dest[1+j] = r.c.box(n)
		}
		return nil
	}
	row := r.c.cells.Rows[i]
	if len(row) != len(dest) {
		return fmt.Errorf("ccsql: row has %d values, want %d", len(row), len(dest))
	}
	for j := range row {
		if cell := &row[j]; cell.Str {
			dest[j] = cell.S
		} else {
			dest[j] = cell.I
		}
	}
	return nil
}
