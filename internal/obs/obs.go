// Package obs is the deterministic observability layer: virtual-clock-native
// span tracing, shared by the engine, the middleware and the experiment
// harness. Spans are the one record: what a batch did — counters, lanes,
// budgets, tier residency — is on its span, and every export derives from that.
//
// Everything in this package is driven by sim.Meter's virtual clock, never by
// wall time, so a trace is a pure function of (workload, configuration): two
// runs of the same build produce byte-identical exports regardless of
// GOMAXPROCS, goroutine interleaving or host speed. Observability never
// charges the meter — opening a span reads the clock, it does not advance it
// — so enabling tracing cannot perturb any simulated result.
//
// The span model mirrors the simulator's parallel cost model: a Tracer is
// single-goroutine like a Meter, and a parallel scan forks one lane Tracer
// per worker (ForkLanes) whose spans buffer privately and fold back in lane
// index order at the barrier (JoinLanes), exactly as lane meters fold through
// sim.Meter.Join. Lane spans render as separate threads in the Perfetto
// export.
//
// Every entry point is nil-receiver safe and allocation-free when disabled:
// a nil *Tracer returns nil *Spans, and all Span methods accept a nil
// receiver, so instrumented code calls straight through without guards.
package obs

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Span categories, from coarse to fine. The hierarchy in a typical tree
// build: build → level (client view) and build → batch → scan → lane →
// cursor / merge / stage / fallback → sql (middleware and engine view).
const (
	CatBuild    = "build"    // one whole model build (tree, NB)
	CatLevel    = "level"    // one tree level, client side
	CatBatch    = "batch"    // one middleware scheduling batch
	CatScan     = "scan"     // the batch's single scan of its source
	CatLane     = "lane"     // one worker's partition of a parallel scan
	CatMerge    = "merge"    // post-barrier CC shard merging
	CatStage    = "stage"    // staging capture/finalize (file or memory)
	CatFallback = "fallback" // one node serviced by the SQL fallback
	CatSQL      = "sql"      // one SQL statement at the server
	CatCursor   = "cursor"   // one whole-table server cursor scan
	CatAux      = "aux"      // auxiliary server structure build (§4.3.3)
	CatScore    = "score"    // one in-database scoring pass over a table
)

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
	Track  int    // render track within the proc ("thread"); 0 = main
	Cat    string // category constant (CatBatch, ...)
	Name   string
	Start  int64 // virtual ns
	Dur    int64 // virtual ns

	// Typed attributes; zero values are omitted from exports.
	Source string // data tier: "server", "file", "memory", "sql"
	Nodes  []int  // tree node ids the operation serviced
	Rows   int64
	Bytes  int64
	Part   int // partition index (meaningful when NParts > 0)
	NParts int
	Attrs  []Attr

	// Deltas holds the counter movement of the span's own clock domain over
	// the span window, captured at End (or by an explicit CaptureCounters
	// before a retroactive EndAt). Nil means no capture happened — the span
	// was never ended. The vector is inclusive: child-span work on the same
	// clock is part of it; the profiler (internal/obs/profile) subtracts
	// children to derive exclusive costs.
	Deltas *sim.CounterVec

	// Overlay marks spans recorded on a descriptive overlay track (Tracer.
	// Track) — e.g. the client-side level view, which intentionally overlaps
	// the build span in virtual time. The profiler reports overlay spans
	// separately and excludes them from exclusive-cost attribution, which
	// would otherwise double-count their windows.
	Overlay bool

	startCounts sim.CounterVec // owning clock's counters at Start
	tr          *Tracer        // owner while open; nil once ended
}

// proc is one virtual-clock domain: one meter's worth of spans plus its track
// (thread) name registry. All mutation happens on the owning goroutine.
type proc struct {
	id     int
	name   string
	spans  []*Span
	nextID int64
	tracks []string // track id -> name
}

func (p *proc) newID() int64 {
	p.nextID++
	return p.nextID
}

// trackID returns the stable track id for a name, allocating on first use.
// Allocation order is deterministic, so track ids are reproducible.
func (p *proc) trackID(name string) int {
	for i, n := range p.tracks {
		if n == name {
			return i
		}
	}
	p.tracks = append(p.tracks, name)
	return len(p.tracks) - 1
}

// Trace is a whole trace: every proc's spans — the one handle the CLIs, the
// fleet and the experiment harness collect observability through. A nil Trace
// is the disabled state: Proc returns a nil Tracer, on which every span call
// is a no-op. Procs register under a lock (experiment suites may build
// concurrently); within a proc all span activity is single-goroutine except
// lanes, which buffer privately until JoinLanes.
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
	p := &proc{id: len(t.procs) + 1, name: name, tracks: []string{"main"}}
	t.procs = append(t.procs, p)
	return &Tracer{p: p, clock: meter}
}

// ProcView is the read-only per-proc view EachProc hands to post-hoc
// consumers such as the profiler (internal/obs/profile).
type ProcView struct {
	ID     int
	Name   string
	Tracks []string // track id -> name
	Spans  []*Span  // in record order
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
		fn(ProcView{ID: p.id, Name: p.name, Tracks: p.tracks, Spans: p.spans})
	}
}

// Tracer opens spans against one proc on one track. Like a sim.Meter it is
// single-goroutine: parallel scans fork lane tracers (ForkLanes) instead of
// sharing one. The zero-value rule is nil = disabled: every method on a nil
// *Tracer is a no-op returning nil.
type Tracer struct {
	p       *proc
	clock   *sim.Meter
	track   int
	offset  int64 // added to clock readings (lane tracers: parent time at fork)
	overlay bool  // descriptive overlay track (Track): spans marked Span.Overlay
	stack   []*Span

	// Lane state: spans buffer locally with temporary negative ids until
	// JoinLanes folds them into the proc in lane order.
	detached   bool
	buf        []*Span
	nextTemp   int64
	laneName   string
	forkParent int64
}

// now returns the tracer's current virtual time in ns.
func (t *Tracer) now() int64 { return t.offset + int64(t.clock.Now()) }

// Start opens a span. Its parent is the innermost span still open on this
// tracer. Returns nil (allocation-free) on a nil tracer.
func (t *Tracer) Start(cat, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		Proc: t.procID(), Track: t.track, Cat: cat, Name: name,
		Start: t.now(), Overlay: t.overlay,
		startCounts: t.clock.CounterVec(), tr: t,
	}
	if t.detached {
		t.nextTemp--
		s.ID = t.nextTemp
	} else {
		s.ID = t.p.newID()
	}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	if t.detached {
		t.buf = append(t.buf, s)
	} else {
		t.p.spans = append(t.p.spans, s)
	}
	t.stack = append(t.stack, s)
	return s
}

func (t *Tracer) procID() int {
	if t.p != nil {
		return t.p.id
	}
	return 0
}

// Track returns a sibling tracer on the named render track of the same proc,
// with its own span stack. Must be called (and used) from the proc's owning
// goroutine; lanes use ForkLanes instead.
func (t *Tracer) Track(name string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{p: t.p, clock: t.clock, track: t.p.trackID(name), overlay: true}
}

// ForkLanes returns one lane tracer per lane meter, buffering spans privately
// so worker goroutines never touch shared state — the tracing analogue of
// sim.Meter.Fork. Lane clocks are offset by the parent's current time, and
// lane spans' parent is the span open on t at fork time. The parent tracer
// must not record between ForkLanes and the matching JoinLanes.
func (t *Tracer) ForkLanes(lanes []*sim.Meter) []*Tracer {
	if t == nil {
		return nil
	}
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].ID
	}
	out := make([]*Tracer, len(lanes))
	for i, lane := range lanes {
		out[i] = &Tracer{
			p:          t.p,
			clock:      lane,
			offset:     t.now(),
			detached:   true,
			laneName:   fmt.Sprintf("lane %d", i+1),
			forkParent: parent,
		}
	}
	return out
}

// JoinLanes folds lane tracers back into the proc in lane index order,
// assigning final span ids — the tracing analogue of sim.Meter.Join. Each
// lane's buffer is a pure function of its partition, so the folded trace is
// bit-for-bit reproducible regardless of goroutine interleaving.
func (t *Tracer) JoinLanes(lanes []*Tracer) {
	if t == nil {
		return
	}
	for _, lt := range lanes {
		track := t.p.trackID(lt.laneName)
		remap := make(map[int64]int64, len(lt.buf))
		for _, s := range lt.buf {
			id := t.p.newID()
			remap[s.ID] = id
			s.ID = id
			switch {
			case s.Parent < 0:
				s.Parent = remap[s.Parent]
			case s.Parent == 0:
				s.Parent = lt.forkParent
			}
			s.Track = track
			t.p.spans = append(t.p.spans, s)
		}
		lt.buf = nil
	}
}

// RunLanes is the lane model's fork/join barrier: it runs body once per
// lane — body(part, lane meter, lane tracer) — and returns after every lane
// has finished and been folded back into meter and t (which may be nil).
//
// With n > 1 the lanes are forked meters and tracers, one goroutine each;
// at the barrier counters sum, the clock advances by the slowest lane, and
// lane spans fold in index order, so the outcome is a pure function of the
// partitioning. body must touch only lane-local state.
//
// A lone lane (n <= 1) needs no barrier: body runs on the calling goroutine
// against meter and t themselves. It may therefore use whatever the caller
// may — the shared buffer pool, the middleware's staging state — and
// sim.Meter.Fork's rule that the parent is not charged while lanes are out
// holds trivially, because none are.
//
// RunLanes and RunSegments are sim.Meter.Fork's only callers, and tests, not
// lint, pin their barriers. Here a dropped JoinLanes fails the engine's
// TestCatalogTailLanes and mw's TestParallelBatchEmitsEventWithLanes; a
// parent charge between Fork and Join, or a Join before the lanes finish,
// fails the engine's TestUnionLanesMatchSerial; and JoinSerial in place of
// Join, or a lane that joins its own meter, fails the engine's
// TestParallelBuildersChargeLanes.
func RunLanes(meter *sim.Meter, t *Tracer, n int, body func(part int, lane *sim.Meter, ltr *Tracer)) {
	if n <= 1 {
		body(0, meter, t)
		return
	}
	lanes := meter.Fork(n)
	ltrs := t.ForkLanes(lanes)
	var wg sync.WaitGroup
	for i, lane := range lanes {
		var ltr *Tracer
		if ltrs != nil {
			ltr = ltrs[i]
		}
		wg.Add(1)
		go func(part int, lane *sim.Meter, ltr *Tracer) {
			defer wg.Done()
			body(part, lane, ltr)
		}(i, lane, ltr)
	}
	wg.Wait()
	meter.Join(lanes)
	t.JoinLanes(ltrs)
}

// RunSegments is RunLanes' serial twin, the host-parallel execution of one
// modeled lane: it runs body once per segment — body(seg, segment meter) — on
// k goroutines and returns after every segment has finished and been folded
// back into meter by sim.Meter.JoinSerial, so the clock advances by the sum of
// the segments' work, as if one goroutine had done all of it. No tracer is
// forked: segments open no spans. body must touch only segment-local state.
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

// End closes the span at the tracer's current virtual time. Safe on a nil or
// already-ended span; out-of-order ends (e.g. overlapping client-side level
// spans) are handled by removing the span wherever it sits on the stack.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	s.Dur = s.tr.now() - s.Start
	s.captureCounters()
	s.popStack()
}

// EndAt closes the span at an explicit virtual time (ns in the proc's clock
// domain), for spans whose logical end was observed earlier than the call. An
// earlier CaptureCounters result is kept — by the time EndAt runs the clock
// has usually moved past the recorded end, so a fresh capture would attribute
// later work to the span; without one, counters are captured here.
func (s *Span) EndAt(ns int64) {
	if s == nil || s.tr == nil {
		return
	}
	s.Dur = ns - s.Start
	if s.Dur < 0 {
		s.Dur = 0
	}
	if s.Deltas == nil {
		s.captureCounters()
	}
	s.popStack()
}

// CaptureCounters records the span's inclusive counter deltas as of the
// owning clock's current state, overwriting any earlier capture. End captures
// automatically; callers that close spans retroactively with EndAt invoke
// this at each moment the span's logical end time advances (the client-side
// level spans do, at every node close). Nil-safe and chainable.
func (s *Span) CaptureCounters() *Span {
	if s != nil && s.tr != nil {
		s.captureCounters()
	}
	return s
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

// SetPartition records partition bounds: partition part of nparts.
func (s *Span) SetPartition(part, nparts int) *Span {
	if s != nil {
		s.Part = part
		s.NParts = nparts
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
