package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

// Daemon serves one engine over the wire protocol. It owns the network side
// only — connections, the hello exchange, framing, drain; every statement
// goes through its Dispatcher, which routes BUILD TREE and SCORE TABLE on the
// served table into multi-tenant fleet cohorts and everything else to the
// engine. Connection handlers are goroutines, one per connection. While a
// fleet statement runs, its connection is watched: a TCancel frame, or the
// client hanging up, cancels the statement's session (watchCancel).
type Daemon struct {
	srv  *engine.Server
	disp *Dispatcher

	cmu      sync.Mutex
	conns    map[net.Conn]bool
	draining bool
	grace    time.Duration // drainGrace; a field so a test can shorten it

	wg sync.WaitGroup // connection handlers
}

// drainGrace is how long Drain lets a handler go on writing its response once
// every fleet run has ended. By then a response is memory being framed to a
// socket, which a client that reads absorbs in far less; a client that has
// stopped reading would otherwise hold its handler, and Drain, forever.
const drainGrace = 5 * time.Second

// DaemonConfig tunes the dispatcher's fleet runs. Every session of a run
// arrives at virtual time zero, so a cohort's results do not depend on
// network timing.
type DaemonConfig struct {
	// Fleet is the multi-tenant scheduling configuration for BUILD TREE and
	// SCORE TABLE cohorts (session cap, memory budget, scan sharing).
	Fleet FleetConfig
}

// NewDaemon creates a daemon over the server.
func NewDaemon(srv *engine.Server, cfg DaemonConfig) *Daemon {
	return &Daemon{srv: srv, disp: NewDispatcher(srv.Engine(), srv, cfg), conns: make(map[net.Conn]bool), grace: drainGrace}
}

// Serve accepts connections until Drain closes the listener. It returns nil
// on a drain-initiated stop and the accept error otherwise.
func (d *Daemon) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			d.cmu.Lock()
			stopped := d.draining
			d.cmu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		d.cmu.Lock()
		if d.draining {
			d.cmu.Unlock()
			conn.Close()
			continue
		}
		d.conns[conn] = true
		d.wg.Add(1) // before Unlock: a Drain that takes cmu next must wait for this handler
		d.cmu.Unlock()
		go func() {
			defer d.wg.Done()
			d.handle(conn)
		}()
	}
}

// Drain stops the daemon gracefully: the listener closes, idle connections
// are unblocked (their next read fails), in-flight statements run to
// completion and flush their responses — to a client that still reads; a
// write that has not gone through drainGrace after the last run ended fails,
// and takes its connection with it — and Drain returns when every handler has
// exited. ln is the listener given to Serve.
func (d *Daemon) Drain(ln net.Listener) {
	d.cmu.Lock()
	if d.draining {
		d.cmu.Unlock()
		d.wg.Wait()
		return
	}
	d.draining = true
	for c := range d.conns { //repolint:ordered deadline fan-out, order-free
		// Unblock handlers parked in ReadFrame; a handler mid-statement is
		// not reading and finishes its statement (and response) first.
		c.SetReadDeadline(time.Unix(0, 0))
	}
	d.cmu.Unlock()
	ln.Close()
	d.disp.Close() // answers what is queued; a handler's next fleet statement fails
	d.cmu.Lock()
	cutoff := time.Now().Add(d.grace) //repolint:determinism a socket deadline is wall clock; no result depends on it
	for c := range d.conns {          //repolint:ordered deadline fan-out, order-free
		c.SetWriteDeadline(cutoff)
	}
	d.cmu.Unlock()
	d.wg.Wait()
}

// handle speaks the protocol on one connection.
func (d *Daemon) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		d.cmu.Lock()
		delete(d.conns, conn)
		d.cmu.Unlock()
	}()

	fr := wire.NewReader(conn)
	var hello wire.Hello
	if err := wire.Expect(fr, wire.THello, &hello); err != nil {
		return
	}
	if hello.Version != wire.Version {
		wire.WriteFrame(conn, wire.TError,
			wire.Error{Msg: fmt.Sprintf("served: protocol version %d not supported (want %d)", hello.Version, wire.Version)})
		return
	}
	ack := wire.HelloAck{Version: wire.Version, Table: d.srv.TableName(), Rows: d.srv.NumRows()}
	if err := wire.WriteFrame(conn, wire.THelloAck, ack); err != nil {
		return
	}

	for {
		t, payload, err := fr.ReadFrame()
		if err != nil {
			return // disconnect or drain deadline
		}
		switch t {
		case wire.TGoodbye:
			return
		case wire.TCancel:
			// Its statement has already ended.
		case wire.TQuery:
			var q wire.Query
			if err := wire.Unmarshal(payload, &q); err != nil {
				wire.WriteFrame(conn, wire.TError, wire.Error{Msg: err.Error()})
				continue
			}
			if err := d.serveQuery(conn, fr, q.SQL); err != nil {
				return // write failure: connection is gone
			}
		default:
			wire.WriteFrame(conn, wire.TError,
				wire.Error{Msg: fmt.Sprintf("served: unexpected %s frame", t)})
		}
	}
}

// serveQuery executes one statement through the dispatcher and frames its
// result. Statement failures are reported in-band with a TError frame; the
// returned error is non-nil only for connection-level write failures. A
// fleet statement is watched until its result is framed (watchCancel); an
// engine statement is read, executed and written on this goroutine alone.
func (d *Daemon) serveQuery(conn net.Conn, fr *wire.Reader, sql string) error {
	var stop func()
	res, err := d.disp.execute(sql, func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		stop = d.watchCancel(conn, fr, cancel)
		return ctx
	})
	if stop != nil {
		defer stop()
	}
	if err != nil {
		return wire.WriteFrame(conn, wire.TError, wire.Error{Msg: err.Error()})
	}
	if res.Score != nil {
		return writeScored(conn, res.Model, res.Score)
	}
	return writeRows(conn, res.Set)
}

// watchCancel reads conn while a fleet statement runs, and cancels the
// statement on a TCancel frame or when the client hangs up. It only peeks
// (wire.Reader.WaitCancel), so any other frame stays for the handler. The
// returned stop, called once the statement's response is written (or has
// failed), ends the watch with a read deadline, waits for the watcher,
// releases the statement's context and hands fr back, its deadline cleared
// unless Drain has set one.
func (d *Daemon) watchCancel(conn net.Conn, fr *wire.Reader, cancel context.CancelFunc) (stop func()) {
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		if ok, err := fr.WaitCancel(); ok || err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			cancel()
		}
	}()
	return func() {
		conn.SetReadDeadline(time.Unix(1, 0))
		<-watched
		cancel()
		d.cmu.Lock()
		if !d.draining {
			conn.SetReadDeadline(time.Time{})
		}
		d.cmu.Unlock()
	}
}

// writeRows frames a materialized result — an engine.ResultSet, whole before
// the first frame; nil = a statement without one — as header, row batches and
// done. One batch is refilled frame after frame.
func writeRows(conn net.Conn, rs *engine.ResultSet) error {
	if rs == nil {
		rs = &engine.ResultSet{}
	}
	if err := wire.WriteFrame(conn, wire.TResultHeader, wire.ResultHeader{Cols: rs.Cols}); err != nil {
		return err
	}
	var b wire.RowBatch
	var cells []wire.Cell
	for base := 0; base < len(rs.Rows); base += wire.BatchRows {
		b.Rows, cells = b.Rows[:0], cells[:0]
		for _, r := range rs.Rows[base:min(base+wire.BatchRows, len(rs.Rows))] {
			at := len(cells)
			for _, v := range r {
				cells = append(cells, wire.Cell{Str: v.Str, I: v.I, S: v.S})
			}
			b.Rows = append(b.Rows, cells[at:len(cells):len(cells)])
		}
		if err := wire.WriteFrame(conn, wire.TRowBatch, &b); err != nil {
			return err
		}
	}
	return wire.WriteFrame(conn, wire.TDone, wire.Done{Rows: int64(len(rs.Rows))})
}

// writeScored frames a fleet scoring result while the fleet run fills it: it
// follows the result's watermark on the connection's own handler goroutine,
// cutting a TScoredBatch (classes plus distributions, one batch refilled frame
// after frame) at every BatchRows rows that have become final — the same
// frames it would cut from the finished result — so the client drains
// predictions while the scan still runs, and the scan, which only publishes,
// never waits for this socket. The header (the class column, then the
// per-class count columns) goes out with the first ready rows, and the stream
// ends when the run does: with TDone, or with TError after every row the
// failed run had published — a bare TError when it had published none.
func writeScored(conn net.Conn, m *engine.Model, res *engine.ScoreResult) error {
	b := wire.ScoredBatch{
		Model:   m.Name,
		Classes: make([]int32, 0, wire.BatchRows),
		Dists:   make([][]int64, 0, wire.BatchRows),
	}
	for sent := 0; ; {
		// Wake when a whole batch is final, or the run has ended.
		n, done, err := res.Wait(sent + wire.BatchRows - 1)
		if sent == 0 && (n > 0 || err == nil) {
			if err := wire.WriteFrame(conn, wire.TResultHeader, wire.ResultHeader{Cols: engine.ScoreCols(m.Classes)}); err != nil {
				return err
			}
		}
		if !done {
			n -= (n - sent) % wire.BatchRows // whole batches only, until the end is known
		}
		for sent < n {
			b.Classes, b.Dists = b.Classes[:0], b.Dists[:0]
			for end := min(sent+wire.BatchRows, n); sent < end; sent++ {
				b.Classes = append(b.Classes, int32(res.Classes[sent]))
				b.Dists = append(b.Dists, res.Dist(m, sent))
			}
			if err := wire.WriteFrame(conn, wire.TScoredBatch, &b); err != nil {
				return err
			}
		}
		switch {
		case err != nil:
			return wire.WriteFrame(conn, wire.TError, wire.Error{Msg: err.Error()})
		case done:
			return wire.WriteFrame(conn, wire.TDone, wire.Done{Rows: int64(n)})
		}
	}
}
