package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestEmptyTraceChromeValid: a trace with no spans (or no procs at all) must
// still serialize as valid Chrome trace-event JSON.
func TestEmptyTraceChromeValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *obs.Trace
	}{
		{"no-procs", obs.NewTrace()},
		{"proc-no-spans", func() *obs.Trace {
			tr := obs.NewTrace()
			tr.Proc("idle", sim.NewDefaultMeter())
			return tr
		}()},
	} {
		var buf bytes.Buffer
		if err := tc.tr.WriteChrome(&buf); err != nil {
			t.Fatalf("%s: WriteChrome: %v", tc.name, err)
		}
		var doc struct {
			DisplayTimeUnit string            `json:"displayTimeUnit"`
			TraceEvents     []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v\n%s", tc.name, err, buf.String())
		}
		if doc.DisplayTimeUnit != "ns" {
			t.Errorf("%s: displayTimeUnit = %q", tc.name, doc.DisplayTimeUnit)
		}
	}
}

// TestEmptyTraceNDJSONValid: an empty trace emits just the summary trailer,
// and the trailer is well-formed JSON on every trace.
func TestEmptyTraceNDJSONValid(t *testing.T) {
	tr := obs.NewTrace()
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("empty trace: got %d lines, want 1 trailer:\n%s", len(lines), buf.String())
	}
	var trailer struct {
		Type  string `json:"type"`
		Procs int    `json:"procs"`
		Spans int    `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &trailer); err != nil {
		t.Fatalf("invalid trailer JSON: %v", err)
	}
	if trailer.Type != "trace" || trailer.Procs != 0 || trailer.Spans != 0 {
		t.Errorf("trailer = %+v, want type=trace procs=0 spans=0", trailer)
	}
}

// TestSpanDeltasOnEnd: ending a span captures the counter movement over its
// window; nested spans see only their own window's movement.
func TestSpanDeltasOnEnd(t *testing.T) {
	meter := sim.NewDefaultMeter()
	trace := obs.NewTrace()
	tr := trace.Proc("p", meter)

	outer := tr.Start(obs.CatBuild, "outer")
	meter.Charge(sim.CtrServerScans, 10, 1)
	inner := tr.Start(obs.CatScan, "inner")
	meter.Charge(sim.CtrRowsTransmitted, 1, 50)
	inner.End()
	meter.Charge(sim.CtrServerScans, 10, 2)
	outer.End()

	if inner.Deltas == nil || outer.Deltas == nil {
		t.Fatal("Deltas not captured at End")
	}
	if got := inner.Deltas.Get(sim.CtrRowsTransmitted); got != 50 {
		t.Errorf("inner rows delta = %d, want 50", got)
	}
	if got := inner.Deltas.Get(sim.CtrServerScans); got != 0 {
		t.Errorf("inner scans delta = %d, want 0", got)
	}
	if got := outer.Deltas.Get(sim.CtrServerScans); got != 3 {
		t.Errorf("outer scans delta = %d, want 3", got)
	}
	if got := outer.Deltas.Get(sim.CtrRowsTransmitted); got != 50 {
		t.Errorf("outer rows delta = %d, want 50 (inclusive of inner)", got)
	}
}

// TestEachProcView: the read-only per-proc view exposes id, label and spans
// in registration order, and is nil-safe.
func TestEachProcView(t *testing.T) {
	var nilTrace *obs.Trace
	nilTrace.EachProc(func(obs.ProcView) { t.Error("callback on nil trace") })

	trace := obs.NewTrace()
	tr1 := trace.Proc("alpha", sim.NewDefaultMeter())
	tr2 := trace.Proc("beta", sim.NewDefaultMeter())
	tr1.Start(obs.CatBuild, "a").End()
	tr2.Start(obs.CatBatch, "b").End()

	var got []obs.ProcView
	trace.EachProc(func(pv obs.ProcView) { got = append(got, pv) })
	if len(got) != 2 {
		t.Fatalf("got %d procs, want 2", len(got))
	}
	if got[0].ID != 1 || got[0].Name != "alpha" || got[1].ID != 2 || got[1].Name != "beta" {
		t.Errorf("proc order/labels wrong: %+v", got)
	}
	if len(got[0].Spans) != 1 || len(got[1].Spans) != 1 {
		t.Errorf("span counts: %d, %d, want 1, 1", len(got[0].Spans), len(got[1].Spans))
	} else if got[1].Spans[0].Name != "b" || got[1].Spans[0].Proc != 2 {
		t.Errorf("proc 2 holds span %q of proc %d, want b of 2", got[1].Spans[0].Name, got[1].Spans[0].Proc)
	}
}

// TestCounterVecOps pins the vector arithmetic the profiler builds on.
func TestCounterVecOps(t *testing.T) {
	meter := sim.NewDefaultMeter()
	base := meter.CounterVec()
	meter.Charge(sim.CtrServerScans, 10, 3)
	meter.Charge(sim.CtrRowsTransmitted, 1, 7)
	d := meter.CounterVec().Delta(base)
	if d.Get(sim.CtrServerScans) != 3 || d.Get(sim.CtrRowsTransmitted) != 7 {
		t.Errorf("delta = %v", d)
	}
	if d.IsZero() {
		t.Error("non-zero vector reports zero")
	}
	var sum sim.CounterVec
	sum.Add(&d)
	sum.Add(&d)
	sum.Sub(&d)
	if sum != d {
		t.Error("Add/Sub round trip failed")
	}
	var names []string
	var vals []int64
	d.EachNonZero(func(c sim.Counter, n int64) {
		names = append(names, c.String())
		vals = append(vals, n)
	})
	if len(names) != 2 {
		t.Fatalf("EachNonZero visited %d counters, want 2", len(names))
	}
	// Declaration order: server scans precede transmitted rows.
	if names[0] != sim.CtrServerScans.String() || vals[0] != 3 {
		t.Errorf("first visit = %s/%d", names[0], vals[0])
	}
	if d.Get(sim.Counter(10_000)) != 0 {
		t.Error("out-of-range counter not zero")
	}
}
