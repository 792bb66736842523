// Package obs is the deterministic observability layer: virtual-clock-native
// span tracing, shared by the engine, the middleware and the experiment
// harness. Spans are the one record: what a batch did — counters, scans,
// budgets, tier residency — is on its span, and every export derives from that.
//
// Everything in this package is driven by sim.Meter's virtual clock, never by
// wall time, so a trace is a pure function of (workload, configuration): two
// runs of the same build produce byte-identical exports regardless of
// GOMAXPROCS, goroutine interleaving or host speed. Observability never
// charges the meter — opening a span reads the clock, it does not advance it
// — so enabling tracing cannot perturb any simulated result.
//
// A Tracer is single-goroutine like a Meter. The segments a scan splits into
// (RunSegments) open no spans, so a trace is the same at every GOMAXPROCS.
//
// Every entry point is nil-receiver safe and allocation-free when disabled:
// a nil *Tracer returns nil *Spans, and all Span methods accept a nil
// receiver, so instrumented code calls straight through without guards.
package obs

import (
	"sync"

	"repro/internal/sim"
)

// Span categories, from coarse to fine. The hierarchy in a typical tree
// build: build → batch → scan → cursor / stage / fallback → sql. A tree
// level is read off its batches (their "level" attribute), not a span.
const (
	CatBuild    = "build"    // one whole model build (tree, NB)
	CatBatch    = "batch"    // one middleware scheduling batch
	CatScan     = "scan"     // the batch's single scan of its source
	CatStage    = "stage"    // staging capture/finalize (file or memory)
	CatFallback = "fallback" // one node serviced by the SQL fallback
	CatSQL      = "sql"      // one SQL statement at the server
	CatCursor   = "cursor"   // one whole-table server cursor scan
	CatAux      = "aux"      // auxiliary server structure build (§4.3.3)
	CatScore    = "score"    // one in-database scoring pass over a table
)

// The kinds of a §4.1.1 fallback: its span's "kind" attribute.
const (
	FallbackNoFit    int64 = 1 // no fit at admission: not even the smallest estimate fit the budget
	FallbackOverflow int64 = 2 // overflow during the scan: shed with nothing left to shed beside it
)

// NodeCC is the record of one counts request a span serviced: its node and
// the node's depth in the tree, the §4.2.1 estimate of its counts-table
// entries it was scheduled and admitted by, and the entries it was counted to.
type NodeCC struct {
	Node      int   `json:"node"`
	Depth     int   `json:"depth"`
	EstCC     int64 `json:"est_cc"`
	CCEntries int64 `json:"cc_entries"`
}

// Attr is one extra key/value attribute on a span. S is used when non-empty,
// otherwise I.
type Attr struct {
	Key string `json:"key"`
	I   int64  `json:"i,omitempty"`
	S   string `json:"s,omitempty"`
}

// Span is one closed or in-flight operation in virtual time. Typed fields
// cover the attributes the exporters render; Attrs holds ordered extras.
type Span struct {
	ID     int64  // unique within the proc, assigned in deterministic order
	Parent int64  // parent span ID, 0 = root
	Proc   int    // virtual-clock domain ("process" in Perfetto)
	Cat    string // category constant (CatBatch, ...)
	Name   string
	Start  int64 // virtual ns
	Dur    int64 // virtual ns

	// Typed attributes; zero values are omitted from exports.
	Source string   // data tier: "server", "file", "memory", "sql"
	Nodes  []int    // tree node ids the operation serviced
	CC     []NodeCC // per counts request the operation answered: estimate and count
	Rows   int64
	Bytes  int64
	Attrs  []Attr

	// Deltas holds the counter movement of the span's own clock domain over
	// the span window, captured at End. Nil means the span was never ended.
	// The vector is inclusive: child-span work on the same clock is part of
	// it; the profiler (internal/obs/profile) subtracts children to derive
	// exclusive costs.
	Deltas *sim.CounterVec

	startCounts sim.CounterVec // owning clock's counters at Start
	tr          *Tracer        // owner while open; nil once ended
}

// proc is one virtual-clock domain: one meter's worth of spans. All mutation
// happens on the owning goroutine.
type proc struct {
	id     int
	name   string
	spans  []*Span
	nextID int64
}

func (p *proc) newID() int64 {
	p.nextID++
	return p.nextID
}

// Trace is a whole trace: every proc's spans — the one handle the CLIs, the
// fleet and the experiment harness collect observability through. A nil Trace
// is the disabled state: Proc returns a nil Tracer, on which every span call
// is a no-op. Procs register under a lock (experiment suites may build
// concurrently); within a proc all span activity is single-goroutine.
type Trace struct {
	mu    sync.Mutex
	procs []*proc
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Proc registers a new virtual-clock domain (one build's meter) under the next
// proc id, 1-based in registration order, and returns its root tracer, clocked
// by meter. A nil Trace returns nil.
func (t *Trace) Proc(name string, meter *sim.Meter) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &proc{id: len(t.procs) + 1, name: name}
	t.procs = append(t.procs, p)
	return &Tracer{p: p, clock: meter}
}

// ProcView is the read-only per-proc view EachProc hands to post-hoc
// consumers such as the profiler (internal/obs/profile).
type ProcView struct {
	ID    int
	Name  string
	Spans []*Span // in record order
}

// EachProc invokes fn once per registered proc in registration order. The
// slices in the view alias the trace's live backing arrays: callers must
// treat them as read-only and only walk a trace after all span activity on it
// has finished.
func (t *Trace) EachProc(fn func(ProcView)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.procs {
		fn(ProcView{ID: p.id, Name: p.name, Spans: p.spans})
	}
}

// Tracer opens spans against one proc; a proc has one tracer, so its spans
// nest: each child lies inside its parent, and siblings are disjoint. Like a
// sim.Meter it is single-goroutine. The zero-value rule is nil = disabled:
// every method on a nil *Tracer is a no-op returning nil.
type Tracer struct {
	p     *proc
	clock *sim.Meter
	stack []*Span
}

// now returns the tracer's current virtual time in ns.
func (t *Tracer) now() int64 { return int64(t.clock.Now()) }

// Start opens a span. Its parent is the innermost span still open on this
// tracer. Returns nil (allocation-free) on a nil tracer.
func (t *Tracer) Start(cat, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		Proc: t.procID(), Cat: cat, Name: name, Start: t.now(),
		startCounts: t.clock.CounterVec(), tr: t, ID: t.p.newID(),
	}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.p.spans = append(t.p.spans, s)
	t.stack = append(t.stack, s)
	return s
}

func (t *Tracer) procID() int {
	if t.p != nil {
		return t.p.id
	}
	return 0
}

// RunSegments is the host-parallel execution of one scan: it runs body once
// per segment — body(seg, segment meter) — on k goroutines and returns after
// every segment has finished and been folded back into meter by
// sim.Meter.JoinSerial, so the clock advances by the sum of the segments'
// work, as if one goroutine had done all of it. Segments open no spans. body
// must touch only segment-local state. RunSegments is sim.Meter.Fork's only
// caller.
//
// A dropped JoinSerial fails mw's TestSegmentsInvisible and
// TestStagedBuildSchedulePinned (and exp's TestAllShapeChecksPass); joining
// before the segments finish panics.
func RunSegments(meter *sim.Meter, k int, body func(seg int, m *sim.Meter)) {
	segs := meter.Fork(k)
	var wg sync.WaitGroup
	for i, seg := range segs {
		wg.Add(1)
		go func(i int, seg *sim.Meter) {
			defer wg.Done()
			body(i, seg)
		}(i, seg)
	}
	wg.Wait()
	meter.JoinSerial(segs)
}

// End closes the span at the tracer's current virtual time and captures its
// counter deltas. Safe on a nil or already-ended span. The span is removed
// wherever it sits on the stack, so an error path that ends an outer span
// first still leaves the stack clean.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	s.Dur = s.tr.now() - s.Start
	s.captureCounters()
	s.popStack()
}

func (s *Span) captureCounters() {
	d := s.tr.clock.CounterVec().Delta(s.startCounts)
	s.Deltas = &d
}

func (s *Span) popStack() {
	st := s.tr.stack
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == s {
			s.tr.stack = append(st[:i], st[i+1:]...)
			break
		}
	}
	s.tr = nil
}

// SetSource records the data tier the operation read ("server", "file",
// "memory", "sql"). All setters are nil-safe and chainable.
func (s *Span) SetSource(src string) *Span {
	if s != nil {
		s.Source = src
	}
	return s
}

// SetNodes records the tree node ids serviced (the slice is copied).
func (s *Span) SetNodes(ids []int) *Span {
	if s != nil && len(ids) > 0 {
		s.Nodes = append([]int(nil), ids...)
	}
	return s
}

// AddCC records a counts request the operation answered: node, its depth,
// and its estimated and counted entries.
func (s *Span) AddCC(node, depth int, est, entries int64) *Span {
	if s != nil {
		s.CC = append(s.CC, NodeCC{node, depth, est, entries})
	}
	return s
}

// SetRows records a row count.
func (s *Span) SetRows(n int64) *Span {
	if s != nil {
		s.Rows = n
	}
	return s
}

// SetBytes records a byte count.
func (s *Span) SetBytes(n int64) *Span {
	if s != nil {
		s.Bytes = n
	}
	return s
}

// AttrInt returns the integer attribute under key, or def when there is none.
func AttrInt(attrs []Attr, key string, def int64) int64 {
	for _, a := range attrs {
		if a.Key == key && a.S == "" {
			return a.I
		}
	}
	return def
}

// Attr appends an extra integer attribute.
func (s *Span) Attr(key string, v int64) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, I: v})
	}
	return s
}

// AttrStr appends an extra string attribute.
func (s *Span) AttrStr(key, v string) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, S: v})
	}
	return s
}

// Truncate caps a string attribute value (no allocation: returns a prefix).
func Truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
