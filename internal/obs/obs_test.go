package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNilTracerZeroAllocs asserts the disabled-observability contract: with a
// nil tracer, the whole span API — Start, every setter, End — performs zero
// allocations, so hot paths need no enabled/disabled branches.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(CatBatch, "batch").
			SetSource("server").SetRows(100).SetBytes(4096).
			SetPartition(1, 4).Attr("k", 7).AttrStr("s", "v")
		sp.End()
		sp.EndAt(5) // idempotent, still no-op
		if lt := tr.Track("x"); lt != nil {
			t.Fatal("nil tracer Track returned non-nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil tracer span API allocated %v times per run, want 0", allocs)
	}
}

// TestNilCollector asserts a nil *Trace — the disabled collector — is a
// complete handle: Proc hands out the nil tracer (every span call a no-op)
// and the exports still produce valid, empty documents.
func TestNilCollector(t *testing.T) {
	var c *Trace
	if tr := c.Proc("x", sim.NewDefaultMeter()); tr != nil {
		t.Fatal("nil trace Proc should return the nil tracer")
	}
	var b bytes.Buffer
	if err := c.Write(&b, "chrome"); err != nil || !json.Valid(b.Bytes()) {
		t.Fatalf("nil trace chrome export: err=%v %q", err, b.String())
	}
	b.Reset()
	if err := c.Write(&b, "ndjson"); err != nil || !json.Valid(b.Bytes()) {
		t.Fatalf("nil trace ndjson export: err=%v %q", err, b.String())
	}
}

// TestSpanNesting checks parent assignment, deterministic ids and virtual-time
// durations for a simple nested open/close sequence.
func TestSpanNesting(t *testing.T) {
	meter := sim.NewDefaultMeter()
	trace := NewTrace()
	tr := trace.Proc("test", meter)

	outer := tr.Start(CatBatch, "outer")
	meter.Advance(100)
	inner := tr.Start(CatScan, "inner").SetRows(5)
	meter.Advance(50)
	inner.End()
	meter.Advance(25)
	outer.End()

	p := trace.procs[0]
	if len(p.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(p.spans))
	}
	o, i := p.spans[0], p.spans[1]
	if o.ID != 1 || i.ID != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", o.ID, i.ID)
	}
	if i.Parent != o.ID {
		t.Fatalf("inner parent = %d, want %d", i.Parent, o.ID)
	}
	if o.Parent != 0 {
		t.Fatalf("outer parent = %d, want 0 (root)", o.Parent)
	}
	if o.Start != 0 || o.Dur != 175 {
		t.Fatalf("outer start/dur = %d/%d, want 0/175", o.Start, o.Dur)
	}
	if i.Start != 100 || i.Dur != 50 {
		t.Fatalf("inner start/dur = %d/%d, want 100/50", i.Start, i.Dur)
	}
	if i.Rows != 5 {
		t.Fatalf("inner rows = %d, want 5", i.Rows)
	}
}

// TestEndAtClamp checks EndAt clamps negative durations to zero and that End
// is idempotent.
func TestEndAtClamp(t *testing.T) {
	meter := sim.NewDefaultMeter()
	tr := NewTrace().Proc("t", meter)
	meter.Advance(100)
	sp := tr.Start(CatLevel, "lvl")
	sp.EndAt(10) // before start
	if sp.Dur != 0 {
		t.Fatalf("EndAt clamp: dur = %d, want 0", sp.Dur)
	}
	meter.Advance(100)
	sp.End() // second close must not resurrect the span
	if sp.Dur != 0 {
		t.Fatalf("End after EndAt changed dur to %d", sp.Dur)
	}
}

// segmentWork runs a four-segment pass (RunSegments) with asymmetric charges
// under a traced batch span and returns the full NDJSON export, exercising
// the serial fold across real goroutines.
func segmentWork(t *testing.T) []byte {
	t.Helper()
	meter := sim.NewDefaultMeter()
	trace := NewTrace()
	tr := trace.Proc("fork", meter)

	bsp := tr.Start(CatBatch, "batch")
	lsp := tr.Start(CatLane, "lane")
	RunSegments(meter, 4, func(j int, seg *sim.Meter) {
		seg.Charge(sim.CtrMemRowsRead, 10, int64(j+1))
	})
	lsp.SetRows(10).End()
	bsp.End()

	var b bytes.Buffer
	if err := trace.WriteNDJSON(&b); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	return b.Bytes()
}

// TestForkJoinDeterministic runs the same segmented pass repeatedly and
// demands byte-identical exports: segments open no spans, and their meters
// fold back serially, so the pass's span covers the sum of their work
// whatever the goroutine interleaving.
func TestForkJoinDeterministic(t *testing.T) {
	ref := segmentWork(t)
	for i := 0; i < 10; i++ {
		if got := segmentWork(t); !bytes.Equal(got, ref) {
			t.Fatalf("run %d: NDJSON differs from first run\nref:\n%s\ngot:\n%s", i, ref, got)
		}
	}
	lines := strings.Split(strings.TrimSpace(string(ref)), "\n")
	if len(lines) != 3 { // batch + lane + trailer
		t.Fatalf("line count = %d, want 3", len(lines))
	}
	var batch, lane ndSpan
	if err := json.Unmarshal([]byte(lines[0]), &batch); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &lane); err != nil {
		t.Fatal(err)
	}
	if lane.Parent != batch.ID || lane.Track != 0 {
		t.Fatalf("lane span parent %d track %d, want batch id %d on the main track", lane.Parent, lane.Track, batch.ID)
	}
	if want := int64(10 * (1 + 2 + 3 + 4)); lane.DurNS != want || batch.DurNS != want {
		t.Fatalf("lane %d ns, batch %d ns, want both %d: the segments' work summed", lane.DurNS, batch.DurNS, want)
	}
}

// TestWriteChrome checks the Chrome export is valid JSON with the expected
// event structure and is byte-deterministic across repeated exports.
func TestWriteChrome(t *testing.T) {
	meter := sim.NewDefaultMeter()
	trace := NewTrace()
	tr := trace.Proc("proc-a", meter)
	sp := tr.Start(CatSQL, "sql").AttrStr("stmt", "SELECT 1").SetRows(1)
	meter.Advance(1234567) // exercises the sub-microsecond ts formatter
	sp.End()

	var b1, b2 bytes.Buffer
	if err := trace.WriteChrome(&b1); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := trace.WriteChrome(&b2); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeated WriteChrome exports differ")
	}

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, b1.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var haveProcName, haveSpan bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				haveProcName = true
			}
		case "X":
			haveSpan = true
			if ev["name"] != "sql" || ev["cat"] != CatSQL {
				t.Fatalf("span event = %v", ev)
			}
			if ev["dur"].(float64) != 1234.567 {
				t.Fatalf("dur = %v, want 1234.567 us", ev["dur"])
			}
			args := ev["args"].(map[string]any)
			if args["stmt"] != "SELECT 1" || args["rows"].(float64) != 1 {
				t.Fatalf("span args = %v", args)
			}
		}
	}
	if !haveProcName || !haveSpan {
		t.Fatalf("missing events: procName=%v span=%v", haveProcName, haveSpan)
	}
}

// TestCollectorTraceFormats checks proc-id assignment, format dispatch and
// the unknown-format error.
func TestCollectorTraceFormats(t *testing.T) {
	c := NewTrace()
	tr := c.Proc("p", sim.NewDefaultMeter())
	if tr == nil {
		t.Fatal("Proc returned a nil tracer")
	}
	tr.Start(CatBuild, "b").End()
	sp := c.Proc("q", sim.NewDefaultMeter()).Start(CatBuild, "b2")
	sp.End()
	if sp.Proc != 2 {
		t.Fatalf("second proc id = %d, want 2 (registration order, 1-based)", sp.Proc)
	}

	var chrome, nd bytes.Buffer
	if err := c.Write(&chrome, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(&nd, "ndjson"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatal("chrome trace invalid JSON")
	}
	first, _, _ := bytes.Cut(bytes.TrimSpace(nd.Bytes()), []byte("\n"))
	var s ndSpan
	if err := json.Unmarshal(first, &s); err != nil || s.Name != "b" {
		t.Fatalf("ndjson span: %v %+v", err, s)
	}
	if err := c.Write(&chrome, "bogus"); err == nil {
		t.Fatal("unknown trace format accepted")
	}
}

// TestTruncate checks the attribute-string cap.
func TestTruncate(t *testing.T) {
	if got := Truncate("abcdef", 3); got != "abc" {
		t.Fatalf("Truncate = %q", got)
	}
	if got := Truncate("ab", 3); got != "ab" {
		t.Fatalf("Truncate short = %q", got)
	}
}
