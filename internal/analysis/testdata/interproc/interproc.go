// Package interproc exercises the function-summary layer: obligations handed
// to always/conditionally/never-releasing helpers, constructors whose results
// carry fresh obligations, two-level helper chains, and recursive cycles.
// Every Bad* case here is invisible to a purely intraprocedural engine —
// passing the value to any helper used to hand the obligation off.
package interproc

import (
	"lintdata/obs"
	"lintdata/res"
)

// ---- spanend helpers ----------------------------------------------------

// endAlways releases its span on every path.
func endAlways(sp *obs.Span) { sp.End() }

// logSpan reads the span but never ends it.
func logSpan(sp *obs.Span) { sp.SetRows(1) }

// endIf releases the span only when ok.
func endIf(sp *obs.Span, ok bool) {
	if ok {
		sp.End()
	}
}

// endSafe nil-guards before releasing: on the nil branch there is nothing to
// end, so this still counts as always-releasing.
func endSafe(sp *obs.Span) {
	if sp != nil {
		sp.End()
	}
}

// forwardLeak forwards to a never-releasing helper: a two-level chain.
func forwardLeak(sp *obs.Span) { logSpan(sp) }

// startSpan wraps an acquire: its result carries a fresh obligation.
func startSpan(tr *obs.Tracer) *obs.Span { return tr.Start("aux", "wrapped") }

// startSpan2 wraps the wrapper: freshness must propagate two levels.
func startSpan2(tr *obs.Tracer) *obs.Span { return startSpan(tr) }

// recEnd releases on the base case and recurses otherwise: the fixed point
// must converge to always-releasing, not be pessimized by its own cycle.
func recEnd(sp *obs.Span, n int) {
	if n <= 0 {
		sp.End()
		return
	}
	recEnd(sp, n-1)
}

// recLeak has a base case that returns without releasing: conditional.
func recLeak(sp *obs.Span, n int) {
	if n == 0 {
		return
	}
	if n == 1 {
		sp.End()
		return
	}
	recLeak(sp, n-1)
}

// pingEnd / pongEnd form a mutually recursive always-releasing pair.
func pingEnd(sp *obs.Span, n int) {
	if n <= 0 {
		sp.End()
		return
	}
	pongEnd(sp, n-1)
}

func pongEnd(sp *obs.Span, n int) {
	if n <= 0 {
		sp.End()
		return
	}
	pingEnd(sp, n-1)
}

// ---- spanend cases ------------------------------------------------------

func BadTwoLevel(tr *obs.Tracer) {
	sp := tr.Start("scan", "batch") // want `obs span "sp" is not Ended on every path: function exit at line \d+ \(passed to interproc\.forwardLeak -> interproc\.logSpan, which never releases it\)`
	forwardLeak(sp)
}

func BadCondRelease(tr *obs.Tracer, ok bool) {
	sp := tr.Start("scan", "batch") // want `obs span "sp" is not Ended on every path.*passed to interproc\.endIf, which releases it only on some paths`
	endIf(sp, ok)
}

func BadWrappedLeak(tr *obs.Tracer) {
	sp := startSpan(tr) // want `obs span "sp" is not Ended on every path`
	sp.SetRows(2)
}

func BadWrappedTwoLevel(tr *obs.Tracer) {
	sp := startSpan2(tr) // want `obs span "sp" is not Ended on every path`
	sp.SetRows(3)
}

func BadWrappedDiscard(tr *obs.Tracer) {
	_ = startSpan(tr) // want `obs span is discarded without being Ended`
}

func BadRecursiveCond(tr *obs.Tracer, n int) {
	sp := tr.Start("scan", "batch") // want `obs span "sp" is not Ended on every path.*passed to interproc\.recLeak, which releases it only on some paths`
	recLeak(sp, n)
}

func OkHelperReleases(tr *obs.Tracer) {
	sp := tr.Start("scan", "batch")
	endAlways(sp)
}

func OkNilGuardHelper(tr *obs.Tracer) {
	sp := tr.Start("scan", "batch")
	endSafe(sp)
}

func OkWrappedReleased(tr *obs.Tracer) {
	sp := startSpan2(tr)
	sp.SetRows(4)
	sp.End()
}

func OkRecursiveHelper(tr *obs.Tracer) {
	sp := tr.Start("scan", "batch")
	recEnd(sp, 3)
}

func OkMutualRecursion(tr *obs.Tracer) {
	sp := tr.Start("scan", "batch")
	pingEnd(sp, 5)
}

// ---- closer helpers -----------------------------------------------------

func closeAlways(c *res.Cursor) { c.Close() }

func readOnly(c *res.Cursor) { c.Next() }

func closeIf(c *res.Cursor, ok bool) {
	if ok {
		c.Close()
	}
}

// drainVia forwards to a never-releasing helper: a two-level chain.
func drainVia(c *res.Cursor) { readOnly(c) }

// makeCursor is not constructor-named, but its summary says the result is a
// fresh obligation — callers must treat it as an acquire site anyway.
func makeCursor() *res.Cursor { return res.OpenScan() }

// makeCursor2 forwards the wrapped acquire another level.
func makeCursor2() *res.Cursor { return makeCursor() }

// makeWriter forwards a (value, error) constructor; the error sibling must
// keep guarding the obligation in callers.
func makeWriter() (*res.Writer, error) { return res.Create() }

// ---- closer cases -------------------------------------------------------

func BadCursorChain() {
	c := res.OpenScan() // want `resource Cursor "c" is not released \(Close/Finish/Abort\) on every path.*passed to interproc\.drainVia -> interproc\.readOnly, which never releases it`
	drainVia(c)
}

func BadCursorCond(ok bool) {
	c := res.OpenScan() // want `resource Cursor "c" is not released \(Close/Finish/Abort\) on every path.*passed to interproc\.closeIf, which releases it only on some paths`
	closeIf(c, ok)
}

func BadWrappedCursor() {
	c := makeCursor2() // want `resource Cursor "c" is not released \(Close/Finish/Abort\) on every path`
	c.Next()
}

func BadWrappedWriter() error {
	w, err := makeWriter() // want `resource Writer "w" is not released \(Close/Finish/Abort\) on every path`
	if err != nil {
		return err
	}
	w.Write([]byte("x"))
	return nil
}

func OkCursorHelper() {
	c := res.OpenScan()
	closeAlways(c)
}

func OkWrappedCursor() {
	c := makeCursor()
	c.Next()
	c.Close()
}

func OkWrappedWriterErrPath() error {
	w, err := makeWriter()
	if err != nil {
		return err
	}
	w.Write([]byte("x"))
	return w.Finish()
}
