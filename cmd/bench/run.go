package main

import (
	"fmt"
	"runtime"
	"time"
)

// A run sets the system up at least minSetups times and until setupBudget has
// been spent setting up (at most maxSetups times); setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1.5 // seconds
)

// runWorkload performs one run: the end-to-end measurement, or with
// o.trace the per-layer one.
func runWorkload(s *spec, o options) (*record, error) {
	rows := s.rows
	if o.rows > 0 {
		rows = o.rows
	}
	rec := newRecord(s, o)
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	if o.trace {
		err = runTraced(s, rows, o, rec, ref)
	} else {
		err = runTimed(s, rows, o, rec, ref)
	}
	if cerr := ref.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// refEvery is how many seconds of operations the loop lets pass before it
// runs the reference kernel again: often enough to follow the host, seldom
// enough that the kernel stays under a fifth of the run.
const refEvery = 0.4

// loop is the closed loop of operations shared by both kinds of run. The
// reference kernel cuts it into segments: refs[k] ran before segment k and
// refs[k+1] after it.
type loop struct {
	ref      *hostRef
	refs     refSeries
	sinceRef float64   // seconds of operations since the last kernel
	lat      []float64 // raw seconds per request; in a mixed round, per point statement
	requests int
	opReq    []float64 // raw seconds of each operation's typical request
	opWall   []float64 // raw seconds per operation
	opCPU    []float64 // raw process CPU seconds per operation
	opSeg    []int     // segment of each operation
	use      usage
	failed   int
	errs     int
}

// do runs one operation with the usage counters read at its boundaries and
// its outputs verified after they stopped.
func (l *loop) do(e *env, tr *tracer) {
	if len(l.refs) == 0 {
		l.refs = append(l.refs, l.ref.run())
	}
	u0 := readUsage()
	res, err := e.run(tr)
	u1 := readUsage()
	if err != nil {
		// The whole operation counts as one failed request; the caller
		// stops, because the connection's state is unknown.
		fmt.Printf("operation failed: %v\n", err)
		l.errs++
		return
	}
	l.use.add(u0, u1)
	wall := 0.0
	for _, d := range res.lat {
		wall += d
	}
	typical := res.typical()
	l.requests += len(res.lat)
	l.lat = append(l.lat, typical...)
	l.opReq = append(l.opReq, mean(typical))
	l.opWall = append(l.opWall, wall)
	l.opCPU = append(l.opCPU, u1.cpuSec-u0.cpuSec)
	l.opSeg = append(l.opSeg, len(l.refs)-1)
	if l.sinceRef += wall; l.sinceRef >= refEvery {
		l.closeSegment()
	}
	l.failed += res.verify()
}

// closeSegment runs the reference kernel that ends the current segment.
func (l *loop) closeSegment() {
	if l.sinceRef > 0 {
		l.refs = append(l.refs, l.ref.run())
		l.sinceRef = 0
	}
}

func (l *loop) ops() float64 { return float64(len(l.opWall)) }

// corrected returns, per operation and in host-corrected seconds, the latency
// of its typical request, its wall time and its CPU time: each scaled by the
// wall (CPU) time the reference kernel took around the operation's segment.
// Every segment must be closed.
func (l *loop) corrected() (opReq, opWall, opCPU []float64) {
	opReq = make([]float64, len(l.opSeg))
	opWall = make([]float64, len(l.opSeg))
	opCPU = make([]float64, len(l.opSeg))
	for i, k := range l.opSeg {
		wall, cpu := l.refs.factors(k)
		opReq[i] = l.opReq[i] * wall
		opWall[i] = l.opWall[i] * wall
		opCPU[i] = l.opCPU[i] * cpu
	}
	return opReq, opWall, opCPU
}

// rawMetrics writes the loop's uncorrected timings under the given names'
// prefix: what a client saw on this host at this moment.
func (l *loop) rawMetrics(out *sink, prefix string, tailQ float64) {
	var wall, cpu float64
	for i, d := range l.opWall {
		wall += d
		cpu += l.opCPU[i]
	}
	refWall := make([]float64, len(l.refs))
	for i, r := range l.refs {
		refWall[i] = r.wall
	}
	out.put(prefix+"request_p50_raw_ms", median(l.opReq)*1e3, "ms")
	out.put(prefix+"request_tail_raw_ms", quantile(l.lat, tailQ)*1e3, "ms")
	out.put(prefix+"operation_p50_raw_ms", median(l.opWall)*1e3, "ms")
	out.put(prefix+"requests_per_s", float64(l.requests)/wall, "1/s")
	out.put(prefix+"cpu_raw_s_per_op", cpu/l.ops(), "s")
	out.put(prefix+"ref_kernel_ms", median(refWall)*1e3, "ms")
}

// warm runs the workload's warm-up operations; their outputs are verified
// too, and a failure there ends the run.
func warm(e *env) error {
	for i := 0; i < e.spec.warmup; i++ {
		res, err := e.run(nil)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if n := res.verify(); n > 0 {
			return fmt.Errorf("warm-up: %d requests failed the oracle", n)
		}
	}
	return nil
}

// runTimed is the end-to-end run: tracing off, no probes.
func runTimed(s *spec, rows int, o options, rec *record, ref *hostRef) error {
	var e *env
	var setupRaw []float64
	var spent float64
	setupRefs := refSeries{ref.run()} // set-up k runs between samples k and k+1
	for len(setupRaw) < minSetups || spent < setupBudget && len(setupRaw) < maxSetups {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
			e = nil
			// Collect the previous system before building the next, so that
			// peak_rss_mb does not depend on when the collector happened to run.
			runtime.GC()
		}
		var st setupTimes
		var err error
		if e, st, err = setup(s, rows, o.seed, s.wire); err != nil {
			return err
		}
		setupRefs = append(setupRefs, ref.run())
		setupRaw = append(setupRaw, st.total)
		spent += st.total
	}
	setupSecs := make([]float64, len(setupRaw))
	for k, d := range setupRaw {
		wall, _ := setupRefs.factors(k)
		setupSecs[k] = d * wall
	}
	defer e.close()
	if _, err := e.prepareOracle(o.seed); err != nil {
		return err
	}
	if err := warm(e); err != nil {
		return err
	}
	runtime.GC() // every run starts its loop from a collected heap

	l := loop{ref: ref}
	deadline := wallNow().Add(time.Duration(o.seconds * float64(time.Second)))
	for l.errs == 0 && (len(l.opWall) == 0 || wallNow().Before(deadline)) {
		l.do(e, nil)
	}
	l.closeSegment()

	rec.Sizes["rows"] = e.ds.N()
	rec.Sizes["bytes"] = int(e.ds.Bytes())
	rec.Sizes["oracle_nodes"] = e.oracle.NumNodes
	rec.Samples["setup"] = len(setupSecs)
	rec.Samples["requests"] = l.requests
	rec.Samples["operations"] = len(l.opWall)
	rec.Samples["ref_kernels"] = len(l.refs)
	rec.Attempted = l.requests + l.errs
	rec.Failed = l.failed + l.errs

	out, raw := newSink(), newSink()
	out.put("setup_s", median(setupSecs), "s")
	raw.put("setup_raw_s", median(setupRaw), "s")
	if l.requests > 0 {
		opReq, opWall, opCPU := l.corrected()
		out.put("request_p50_ms", median(opReq)*1e3, "ms")
		out.put("operation_p50_ms", median(opWall)*1e3, "ms")
		out.put("cpu_s_per_op", median(opCPU), "s")
		out.put("alloc_mb_per_op", float64(l.use.allocBytes)/l.ops()/(1<<20), "MB")
		l.rawMetrics(raw, "", s.tailQ)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.put("peak_rss_mb", rss, "MB")
	rec.finish(out)
	rec.Raw = raw.metrics
	return nil
}

// runTraced is the per-layer run: one set-up with the daemon always started,
// the layer probes, then a loop that alternates untraced and traced
// operations so that trace.overhead_pct compares like with like.
func runTraced(s *spec, rows int, o options, rec *record, ref *hostRef) error {
	e, st, err := setup(s, rows, o.seed, true)
	if err != nil {
		return err
	}
	defer e.close()
	e.probe = o.probe
	oracleSec, err := e.prepareOracle(o.seed)
	if err != nil {
		return err
	}
	out := newSink()
	out.put("datagen.generate_s", st.generate, "s")
	out.put("storage.load_rows_per_s", float64(e.ds.N())/st.load, "rows/s")
	out.put("bench.oracle_s", oracleSec, "s")
	if err := e.probes(out); err != nil {
		return err
	}
	if err := warm(e); err != nil {
		return err
	}

	tr := newTracer()
	plain, traced := loop{ref: ref}, loop{ref: ref}
	deadline := wallNow().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	for plain.errs+traced.errs == 0 && (len(traced.opWall) < 2 || wallNow().Before(deadline)) {
		plain.do(e, nil)
		if plain.errs == 0 {
			traced.do(e, tr)
		}
	}
	plain.closeSegment()
	traced.closeSegment()
	if o.traceOut != "" {
		if err := tr.writeNDJSON(o.traceOut); err != nil {
			return err
		}
	}

	rec.Sizes["rows"] = e.ds.N()
	rec.Sizes["bytes"] = int(e.ds.Bytes())
	rec.Samples["operations_untraced"] = len(plain.opWall)
	rec.Samples["operations_traced"] = len(traced.opWall)
	rec.Samples["spans"] = len(tr.spans)
	errs := plain.errs + traced.errs
	rec.Attempted = plain.requests + traced.requests + errs
	rec.Failed = plain.failed + traced.failed + errs
	if errs == 0 {
		use := plain.use
		use.add(usage{}, traced.use)
		ops := plain.ops() + traced.ops()
		out.put("go.mallocs_per_op", float64(use.mallocs)/ops, "count")
		out.put("go.gc_cycles_per_op", float64(use.gcCycles)/ops, "count")
		out.put("go.gc_pause_ms_per_op", float64(use.gcPauseNS)/ops/1e6, "ms")
		out.put("trace.overhead_pct", (median(traced.opWall)/median(plain.opWall)-1)*100, "%")
		plain.rawMetrics(out, "bench.", s.tailQ)
	}
	rec.finish(out)
	return nil
}
