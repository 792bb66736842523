package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
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
		if lts := tr.ForkLanes(nil); lts != nil {
			t.Fatal("nil tracer ForkLanes returned non-nil")
		}
		tr.JoinLanes(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer span API allocated %v times per run, want 0", allocs)
	}
}

// TestNilCollector asserts the nil Collector is a complete no-op handle.
func TestNilCollector(t *testing.T) {
	if c := NewCollector(false, false); c != nil {
		t.Fatal("NewCollector(false, false) should return nil")
	}
	var c *Collector
	tr, pm := c.Proc("x", sim.NewDefaultMeter())
	if tr != nil || pm != nil {
		t.Fatal("nil collector Proc should return (nil, nil)")
	}
	var b bytes.Buffer
	if err := c.WriteTrace(&b, "chrome"); err != nil || b.Len() != 0 {
		t.Fatalf("nil collector WriteTrace: err=%v len=%d", err, b.Len())
	}
	if err := c.WriteMetrics(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil collector WriteMetrics: err=%v len=%d", err, b.Len())
	}
	if s := c.Summary(); s != "" {
		t.Fatalf("nil collector Summary = %q", s)
	}
}

// TestSpanNesting checks parent assignment, deterministic ids and virtual-time
// durations for a simple nested open/close sequence.
func TestSpanNesting(t *testing.T) {
	meter := sim.NewDefaultMeter()
	trace := NewTrace()
	tr := trace.Proc(1, "test", meter)

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
	tr := NewTrace().Proc(1, "t", meter)
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

// laneWork drives a forked lane pair with asymmetric charges and returns the
// full NDJSON export, exercising the fold across real goroutines.
func laneWork(t *testing.T) []byte {
	t.Helper()
	meter := sim.NewDefaultMeter()
	trace := NewTrace()
	tr := trace.Proc(1, "fork", meter)

	bsp := tr.Start(CatBatch, "batch")
	lanes := meter.Fork(4)
	ltrs := tr.ForkLanes(lanes)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lsp := ltrs[w].Start(CatLane, "lane").SetPartition(w, 4)
			// Asymmetric work so lane clocks differ.
			lanes[w].Charge(sim.CtrMemRowsRead, 10, int64(w+1))
			lsp.SetRows(int64(w + 1)).End()
		}(w)
	}
	wg.Wait()
	meter.Join(lanes)
	tr.JoinLanes(ltrs)
	bsp.End()

	var b bytes.Buffer
	if err := trace.WriteNDJSON(&b); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	return b.Bytes()
}

// TestForkJoinDeterministic runs the same forked workload repeatedly and
// demands byte-identical exports: lane spans must fold in lane index order
// with reproducible ids regardless of goroutine interleaving.
func TestForkJoinDeterministic(t *testing.T) {
	ref := laneWork(t)
	for i := 0; i < 10; i++ {
		if got := laneWork(t); !bytes.Equal(got, ref) {
			t.Fatalf("run %d: NDJSON differs from first run\nref:\n%s\ngot:\n%s", i, ref, got)
		}
	}
	// Lane spans land on their own tracks with the batch span as parent.
	lines := strings.Split(strings.TrimSpace(string(ref)), "\n")
	if len(lines) != 6 { // batch + 4 lanes + trailer
		t.Fatalf("line count = %d, want 6", len(lines))
	}
	var sum ndSummary
	if err := json.Unmarshal([]byte(lines[5]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Type != "trace" || sum.Procs != 1 || sum.Spans != 5 {
		t.Fatalf("trailer = %+v, want trace/1/5", sum)
	}
	var batch ndSpan
	if err := json.Unmarshal([]byte(lines[0]), &batch); err != nil {
		t.Fatal(err)
	}
	for i, ln := range lines[1:5] {
		var s ndSpan
		if err := json.Unmarshal([]byte(ln), &s); err != nil {
			t.Fatal(err)
		}
		if s.Parent != batch.ID {
			t.Fatalf("lane %d parent = %d, want batch id %d", i, s.Parent, batch.ID)
		}
		if want := "lane " + string(rune('1'+i)); s.TrackN != want {
			t.Fatalf("lane %d track = %q, want %q", i, s.TrackN, want)
		}
		if s.Rows != int64(i+1) {
			t.Fatalf("lane %d rows = %d, want %d", i, s.Rows, i+1)
		}
	}
}

// TestWriteChrome checks the Chrome export is valid JSON with the expected
// event structure and is byte-deterministic across repeated exports.
func TestWriteChrome(t *testing.T) {
	meter := sim.NewDefaultMeter()
	trace := NewTrace()
	tr := trace.Proc(1, "proc-a", meter)
	sp := tr.Start(CatSQL, "sql").AttrStr("stmt", "SELECT 1").SetRows(1)
	meter.Advance(1234567) // exercises the sub-microsecond ts formatter
	sp.End()

	var b1, b2 bytes.Buffer
	if err := trace.WriteChrome(&b1, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := trace.WriteChrome(&b2, nil); err != nil {
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

// TestMetricsSampling drives the ChargeObserver hook and checks throttled
// sampling, batch stats, lane imbalance and deterministic JSON output.
func TestMetricsSampling(t *testing.T) {
	meter := sim.NewDefaultMeter()
	reg := NewMetrics()
	pm := reg.NewProc(1, "m", meter)
	meter.SetObserver(pm)

	// First charge always samples; charges inside the throttle window do not.
	meter.Charge(sim.CtrMemRowsRead, 10, 1)
	meter.Charge(sim.CtrMemRowsRead, 10, 1)
	if len(pm.Samples) != 1 {
		t.Fatalf("samples after 2 close charges = %d, want 1 (throttled)", len(pm.Samples))
	}
	// A charge that advances past the sampling period lands a second sample.
	meter.Charge(sim.CtrMemRowsRead, defaultSampleEveryNS, 1)
	if len(pm.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(pm.Samples))
	}
	last := pm.Samples[len(pm.Samples)-1]
	idx := -1
	for i, n := range pm.WatchNames {
		if n == sim.CtrMemRowsRead.String() {
			idx = i
		}
	}
	if idx < 0 || last.Vals[idx] != 3 {
		t.Fatalf("watched mem_rows_read = %d (idx %d), want 3", last.Vals[idx], idx)
	}

	pm.AddBatch(BatchStats{
		Batch: 1, Source: "server", EndNS: int64(meter.Now()),
		Lanes: []LaneStat{{Lane: 1, ElapsedNS: 100}, {Lane: 2, ElapsedNS: 160}},
	})
	if got := pm.MaxLaneImbalanceNS(); got != 60 {
		t.Fatalf("MaxLaneImbalanceNS = %d, want 60", got)
	}

	var b1, b2 bytes.Buffer
	if err := reg.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeated WriteJSON exports differ")
	}
	if !json.Valid(b1.Bytes()) {
		t.Fatalf("metrics JSON invalid:\n%s", b1.String())
	}
	if s := reg.Summary(); !strings.Contains(s, "max lane imbalance 60 ns") {
		t.Fatalf("Summary missing imbalance: %q", s)
	}

	// Nil ProcMetrics: every method is a safe no-op.
	var nilPM *ProcMetrics
	nilPM.ObserveCharge(sim.CtrMemRowsRead, 1, 1, 1)
	nilPM.AddBatch(BatchStats{})
	if nilPM.MaxLaneImbalanceNS() != 0 {
		t.Fatal("nil ProcMetrics imbalance != 0")
	}
}

// TestCollectorTraceFormats checks format dispatch and the unknown-format
// error.
func TestCollectorTraceFormats(t *testing.T) {
	c := NewCollector(true, true)
	meter := sim.NewDefaultMeter()
	tr, pm := c.Proc("p", meter)
	if tr == nil || pm == nil {
		t.Fatal("collector Proc returned nil facilities")
	}
	tr.Start(CatBuild, "b").End()

	var chrome, nd bytes.Buffer
	if err := c.WriteTrace(&chrome, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteTrace(&nd, "ndjson"); err != nil {
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
	if err := c.WriteTrace(&chrome, "bogus"); err == nil {
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
