package main

import (
	"bytes"
	"database/sql"
	"fmt"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/predicate"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/wire"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sink collects metrics by name; exact marks the counts that must repeat
// exactly for the same seed.
type sink struct {
	metrics map[string]metric
	exact   map[string]bool
}

func newSink() *sink { return &sink{metrics: map[string]metric{}, exact: map[string]bool{}} }

func (s *sink) put(name string, v float64, unit string) { s.metrics[name] = metric{v, unit} }

func (s *sink) count(name string, v int64) { s.exactly(name, v, "count") }

func (s *sink) exactly(name string, v int64, unit string) {
	s.put(name, float64(v), unit)
	s.exact[name] = true
}

// probes times each layer's exported entry points over the workload's own
// dataset, from outside the layer, and writes one metric per entry point.
// The same ladder runs on every workload, so each layer is seen on both data
// shapes; README.md maps every metric to the end-to-end metric it should move.
func (e *env) probes(out *sink) error {
	for _, p := range []func(*sink) error{
		e.probeStorageEngine, e.probeCC, e.probeBuild, e.probeDtree,
		e.probeScore, e.probeWire, e.probeFleet, e.probeStatements, e.probeDriver,
	} {
		if err := p(out); err != nil {
			return err
		}
	}
	return nil
}

// view returns a session view of the server with a private meter, so a
// probe's charges never reach the counters of the operation under test.
func (e *env) view() *engine.Server {
	return e.srv.View(sim.NewMeter(e.srv.Meter().Costs()), nil)
}

// model is the scoring model the daemon trained and registered at set-up.
func (e *env) model() (*engine.Model, error) { return e.srv.Engine().Model(modelName) }

// levelFilter is the pushed-down filter of a build batch at tree depth 3 (or
// the deepest level the tree has): the OR of the nodes' path predicates.
func levelFilter(t *dtree.Tree) predicate.Filter {
	depth := min(3, t.MaxDepth)
	var paths []predicate.Conj
	t.Walk(func(n *dtree.Node) {
		if n.Depth == depth {
			paths = append(paths, n.Path)
		}
	})
	return predicate.Or(paths...)
}

func (e *env) probeStorageEngine(out *sink) error {
	rows := float64(e.ds.N())
	v := e.view()
	ng := v.NumColGroups()

	var colBytes int64
	var last *storage.ColGroup
	v.ScanColumnarRange(predicate.MatchAll(), nil, 0, ng, nil, func(b *engine.ColBlock) bool {
		if b.Group != last {
			last = b.Group
			colBytes += b.Group.Bytes(nil)
		}
		return true
	})
	out.put("storage.col_bytes_per_row", float64(colBytes)/rows, "B")
	out.put("storage.heap_bytes_per_row", float64(e.srv.DataBytes())/rows, "B")

	scan := func(f predicate.Filter) (float64, error) {
		return e.probe.repeat(func() error {
			v.ScanColumnarRange(f, nil, 0, ng, nil, func(*engine.ColBlock) bool { return true })
			return nil
		})
	}
	sec, err := scan(predicate.MatchAll())
	if err != nil {
		return err
	}
	out.put("engine.scan_columnar_rows_per_s", rows/sec, "rows/s")
	if sec, err = scan(levelFilter(e.oracle)); err != nil {
		return err
	}
	out.put("engine.scan_columnar_filtered_rows_per_s", rows/sec, "rows/s")

	sec, err = e.probe.repeat(func() error {
		c := v.OpenScan(predicate.MatchAll())
		defer c.Close()
		n := 0
		for _, ok := c.Next(); ok; _, ok = c.Next() {
			n++
		}
		if n != e.ds.N() {
			return fmt.Errorf("cursor scan returned %d of %d rows", n, e.ds.N())
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("engine.cursor_rows_per_s", rows/sec, "rows/s")
	return nil
}

func (e *env) probeCC(out *sink) error {
	rows := float64(e.ds.N())
	s := e.ds.Schema
	attrs := make([]int, s.NumCols()) // every attribute, then the class
	for i := range attrs {
		attrs[i] = i
	}
	sec, err := e.probe.repeat(func() error {
		t := cc.New()
		for _, r := range e.ds.Rows {
			t.AddRow(r, attrs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("cc.addrow_rows_per_s", rows/sec, "rows/s")

	// The vectorized path: one AddMany per attribute per 1024-row block.
	type block struct {
		g   *storage.ColGroup
		sel []int32
	}
	var blocks []block
	v := e.view()
	v.ScanColumnarRange(predicate.MatchAll(), nil, 0, v.NumColGroups(), nil, func(b *engine.ColBlock) bool {
		blocks = append(blocks, block{b.Group, append([]int32(nil), b.Sel...)})
		return true
	})
	classIdx := s.ClassIndex()
	sec, err = e.probe.repeat(func() error {
		t := cc.New()
		var hist []int64
		for _, b := range blocks {
			classDict, classCodes := b.g.Dict(classIdx), b.g.Codes(classIdx)
			for _, a := range attrs {
				hist, _ = t.AddMany(a, b.g.Dict(a), b.g.Codes(a), classDict, classCodes, b.sel, hist)
			}
			t.AddRows(int64(len(b.sel)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("cc.addmany_rows_per_s", rows/sec, "rows/s")

	// Shard merge: two half-data tables folded into a fresh one.
	half := e.ds.N() / 2
	a, b := cc.New(), cc.New()
	for i, r := range e.ds.Rows {
		if i < half {
			a.AddRow(r, attrs)
		} else {
			b.AddRow(r, attrs)
		}
	}
	const merges = 200
	sec, err = e.probe.repeat(func() error {
		for i := 0; i < merges; i++ {
			t := cc.New()
			t.Merge(a)
			t.Merge(b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("cc.merge_entries_per_s", float64(merges*(a.Entries()+b.Entries()))/sec, "1/s")
	return nil
}

// probeBuild drives full builds (three by default) through the stepped decomposition with
// the workload's middleware configuration. The mw.* and dtree.* times come
// from its spans; the exact counts are the server meter's deltas over one
// build, identical on every build of the same data.
func (e *env) probeBuild(out *sink) error {
	tr := newTracer()
	meter := e.srv.Meter()
	var snap sim.Snapshot
	var ss stepStats
	for i := 0; i < e.probe.minReps; i++ {
		snap = meter.Snapshot()
		tr.begin("op")
		tree, st, err := buildStepped(e.srv, e.cfg, e.spec.opt, tr)
		tr.end()
		if err != nil {
			return err
		}
		if !dtree.Equal(tree, e.oracle) {
			return fmt.Errorf("probe build differs from the oracle tree")
		}
		ss = st
	}
	out.put("mw.step_busy_s", median(tr.perOp(named("mw.step"))), "s")
	for _, src := range []string{"server", "file", "memory", "sql"} {
		out.put("mw.step_"+src+"_s", median(tr.perOp(stepFrom(src))), "s")
	}
	out.put("dtree.feed_busy_s", median(tr.perOp(named("dtree.feed"))), "s")
	out.put("mw.mem_in_use_peak_mb", float64(ss.memPeak)/(1<<20), "MB")
	out.put("mw.file_in_use_peak_mb", float64(ss.filePeak)/(1<<20), "MB")
	if e.cfg.Memory > 0 && ss.memPeak > e.cfg.Memory {
		return fmt.Errorf("middleware memory peaked at %d bytes, over its %d-byte budget", ss.memPeak, e.cfg.Memory)
	}

	for _, c := range []struct {
		name string
		ctr  sim.Counter
	}{
		{"mw.batches", sim.CtrBatches},
		{"mw.sql_fallbacks", sim.CtrSQLFallbacks},
		{"mw.files_created", sim.CtrFilesCreated},
		{"mw.file_rows_written", sim.CtrFileRowsWritten},
		{"mw.file_rows_read", sim.CtrFileRowsRead},
		{"mw.mem_rows_read", sim.CtrMemRowsRead},
		{"engine.server_pages_read", sim.CtrServerPages},
		{"engine.col_blocks", sim.CtrColBlocks},
		{"engine.col_groups_skipped", sim.CtrColGroupsSkipped},
		{"engine.rows_transmitted", sim.CtrRowsTransmitted},
		{"engine.sql_statements", sim.CtrSQLStatements},
		{"cc.cc_updates", sim.CtrCCUpdates},
		{"cc.cc_folds", sim.CtrCCFolds},
	} {
		out.count(c.name, meter.CountSince(snap, c.ctr))
	}
	virtual := meter.Since(snap)
	out.exactly("sim.build_virtual_ns", int64(virtual), "ns")
	out.put("sim.build_wall_per_virtual", median(tr.perOp(named("op")))/virtual.Seconds(), "ratio")

	// The lane path: the root batch alone at Workers = 2.
	cfg := e.cfg
	cfg.Workers = 2
	sec, err := e.probe.repeat(func() error {
		m, err := mw.New(e.srv, cfg)
		if err != nil {
			return err
		}
		defer m.Close()
		b, err := dtree.NewBuilder(m, e.spec.opt)
		if err != nil {
			return err
		}
		defer b.Abort()
		_, err = m.Step()
		return err
	})
	if err != nil {
		return err
	}
	out.put("mw.step_root_w2_ms", sec*1e3, "ms")
	return nil
}

func (e *env) probeDtree(out *sink) error {
	out.count("dtree.nodes", int64(e.oracle.NumNodes))
	out.count("dtree.leaves", int64(e.oracle.NumLeaves))
	const compiles = 20
	sec, err := e.probe.repeat(func() error {
		for i := 0; i < compiles; i++ {
			if _, err := dtree.Compile(e.oracle, "probe"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("dtree.compile_ms", sec/compiles*1e3, "ms")

	var sum data.Value
	sec, err = e.probe.repeat(func() error {
		for _, r := range e.ds.Rows {
			sum += e.oracle.Predict(r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	_ = sum // keeps the Predict loop observable
	out.put("dtree.predict_rows_per_s", float64(e.ds.N())/sec, "rows/s")
	return nil
}

// probeScore times the in-engine scorer on the model the daemon trained and
// checks it against the oracle's walk.
func (e *env) probeScore(out *sink) error {
	model, err := e.model()
	if err != nil {
		return err
	}
	v := e.view()
	var res *engine.ScoreResult
	var snap sim.Snapshot
	sec, err := e.probe.repeat(func() error {
		snap = v.Meter().Snapshot()
		res, err = v.ScoreColumnar(model, 1)
		return err
	})
	if err != nil {
		return err
	}
	for i, c := range res.Classes {
		if c != e.want[i] {
			return fmt.Errorf("engine score of row %d is %d, oracle predicts %d", i, c, e.want[i])
		}
	}
	out.put("engine.score_rows_per_s", float64(e.ds.N())/sec, "rows/s")
	out.count("engine.score_rows", v.Meter().CountSince(snap, sim.CtrScoreRows))
	out.count("engine.model_node_probes", v.Meter().CountSince(snap, sim.CtrModelProbes))
	virtual := v.Meter().Since(snap)
	out.exactly("sim.score_virtual_ns", int64(virtual), "ns")
	out.put("sim.score_wall_per_virtual", sec/virtual.Seconds(), "ratio")
	return nil
}

// probeWire frames the engine's score stream and a slice of the table the
// way the daemon does (256-row batches) through a bytes.Buffer.
func (e *env) probeWire(out *sink) error {
	model, err := e.model()
	if err != nil {
		return err
	}
	res, err := e.view().ScoreColumnar(model, 1)
	if err != nil {
		return err
	}
	var scored []wire.ScoredBatch
	for base := 0; base < len(res.Classes); base += wire.BatchRows {
		b := wire.ScoredBatch{Model: modelName}
		for i := base; i < min(base+wire.BatchRows, len(res.Classes)); i++ {
			b.Classes = append(b.Classes, int32(res.Classes[i]))
			b.Dists = append(b.Dists, res.Dist(model, i))
		}
		scored = append(scored, b)
	}
	nrb := min(len(e.ds.Rows), 20000)
	var batches []wire.RowBatch
	for base := 0; base < nrb; base += wire.BatchRows {
		var b wire.RowBatch
		for _, r := range e.ds.Rows[base:min(base+wire.BatchRows, nrb)] {
			row := make([]wire.Cell, len(r))
			for i, v := range r {
				row[i].I = int64(v)
			}
			b.Rows = append(b.Rows, row)
		}
		batches = append(batches, b)
	}

	var buf bytes.Buffer
	codec := func(name string, t wire.Type, rows, n int, frame func(i int) any, into func() any) error {
		sec, err := e.probe.repeat(func() error {
			buf.Reset()
			for i := 0; i < n; i++ {
				if err := wire.WriteFrame(&buf, t, frame(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		out.put("wire.encode_"+name+"_rows_per_s", float64(rows)/sec, "rows/s")
		encoded := append([]byte(nil), buf.Bytes()...)
		sec, err = e.probe.repeat(func() error {
			r := bytes.NewReader(encoded)
			for i := 0; i < n; i++ {
				_, payload, err := wire.ReadFrame(r)
				if err != nil {
					return err
				}
				if err := wire.Unmarshal(payload, into()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		out.put("wire.decode_"+name+"_rows_per_s", float64(rows)/sec, "rows/s")
		return nil
	}
	if err := codec("scored", wire.TScoredBatch, len(e.want), len(scored),
		func(i int) any { return scored[i] }, func() any { return new(wire.ScoredBatch) }); err != nil {
		return err
	}
	out.put("wire.bytes_per_scored_row", float64(buf.Len())/float64(len(e.want)), "B")
	if err := codec("rowbatch", wire.TRowBatch, nrb, len(batches),
		func(i int) any { return batches[i] }, func() any { return new(wire.RowBatch) }); err != nil {
		return err
	}

	// The frames of one point statement: Query out, ResultHeader and Done back.
	const stmts = 500
	q := wire.Query{SQL: e.gen.count().sql}
	hdr := wire.ResultHeader{Cols: []string{e.ds.Schema.Class.Name, "count"}}
	sec, err := e.probe.repeat(func() error {
		for i := 0; i < stmts; i++ {
			buf.Reset()
			if err := wire.WriteFrame(&buf, wire.TQuery, q); err != nil {
				return err
			}
			if err := wire.WriteFrame(&buf, wire.TResultHeader, hdr); err != nil {
				return err
			}
			if err := wire.WriteFrame(&buf, wire.TDone, wire.Done{Rows: 2}); err != nil {
				return err
			}
			var gq wire.Query
			var gh wire.ResultHeader
			var gd wire.Done
			if err := wire.Expect(&buf, wire.TQuery, &gq); err != nil {
				return err
			}
			if err := wire.Expect(&buf, wire.TResultHeader, &gh); err != nil {
				return err
			}
			if err := wire.Expect(&buf, wire.TDone, &gd); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("wire.small_frame_us", sec/stmts*1e6, "us")
	return nil
}

// probeFleet runs the multi-tenant scheduler in process: one build session
// (its distance from a plain build is scheduler overhead), four identical
// sessions sharing scans (a deterministic cohort, unlike two wire clients),
// and one scoring session.
func (e *env) probeFleet(out *sink) error {
	fleetCfg := func(sessions int64) serve.FleetConfig {
		base := e.cfg
		base.Memory = 0
		return serve.FleetConfig{Base: base, TotalMemory: sessions * e.cfg.Memory, MaxSessions: 8, ScanSharing: true}
	}
	var pages int64
	builds := func(n int) func() error {
		return func() error {
			f, err := serve.NewFleet(e.srv, nil, fleetCfg(int64(n)))
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if _, err := f.Open("", e.spec.opt, 0); err != nil {
					return err
				}
			}
			if err := f.Run(); err != nil {
				return err
			}
			for _, s := range f.Sessions() {
				if !dtree.Equal(s.Tree(), e.oracle) {
					return fmt.Errorf("fleet session %d built a tree that differs from the oracle", s.ID)
				}
			}
			pages = f.TotalServerPages()
			return nil
		}
	}
	sec, err := e.probe.repeat(builds(1))
	if err != nil {
		return err
	}
	out.put("serve.fleet1_build_s", sec, "s")
	t0 := wallNow()
	if err := builds(4)(); err != nil {
		return err
	}
	out.put("serve.fleet4_build_s", sinceSec(t0), "s")
	out.count("serve.fleet4_server_pages", pages)

	model, err := e.model()
	if err != nil {
		return err
	}
	sec, err = e.probe.repeat(func() error {
		f, err := serve.NewFleet(e.srv, nil, fleetCfg(1))
		if err != nil {
			return err
		}
		if _, err := f.OpenScore("", model, 1, 0); err != nil {
			return err
		}
		return f.Run()
	})
	if err != nil {
		return err
	}
	out.put("serve.fleet_score_ms", sec*1e3, "ms")
	return nil
}

// probeStatements runs the same seeded point statements in process
// (sqlparser.Parse, Engine.Exec) and over the wire; the difference of the
// medians is what driver, wire and daemon add to a statement.
func (e *env) probeStatements(out *sink) error {
	var classify, count []string
	const perKind = 50 // enough statements of each kind for a steady median
	for i := 0; i < perKind; i++ {
		classify = append(classify, e.gen.classify().sql)
		count = append(count, e.gen.count().sql)
	}
	all := append(append([]string(nil), classify...), count...)
	const parses = 20
	sec, err := e.probe.repeat(func() error {
		for i := 0; i < parses; i++ {
			for _, q := range all {
				if _, err := sqlparser.Parse(q); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("sqlparser.parse_point_us", sec/float64(parses*len(all))*1e6, "us")

	for _, k := range []struct {
		name  string
		stmts []string
	}{{"classify", classify}, {"count", count}} {
		var local, remote []float64
		for _, q := range k.stmts {
			t0 := wallNow()
			want, err := e.srv.Engine().Exec(q)
			local = append(local, sinceSec(t0))
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			t0 = wallNow()
			got, err := e.queryCells(nil, q)
			remote = append(remote, sinceSec(t0))
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			if !cellsEqual(got, want.Rows) {
				return fmt.Errorf("%s: wire reply differs from in-process Exec", q)
			}
		}
		out.put("engine.exec_point_"+k.name+"_ms", median(local)*1e3, "ms")
		out.put("serve.stmt_overhead_"+k.name+"_ms", (median(remote)-median(local))*1e3, "ms")
	}
	return nil
}

func (e *env) probeDriver(out *sink) error {
	addr := e.ln.Addr().String()
	sec, err := e.probe.repeat(func() error {
		db, err := sql.Open("ccsql", addr)
		if err != nil {
			return err
		}
		defer db.Close()
		return db.Ping() // dial + protocol handshake
	})
	if err != nil {
		return err
	}
	out.put("driver.open_ms", sec*1e3, "ms")

	var firsts, drains []float64
	for i := 0; i < 5; i++ {
		t0 := wallNow()
		got, first, err := e.scoreTable(nil)
		total := sinceSec(t0)
		if err != nil {
			return err
		}
		if !e.scoreMatches(got) {
			return fmt.Errorf("SCORE TABLE stream differs from the oracle's predictions")
		}
		firsts = append(firsts, first)
		drains = append(drains, float64(len(got))/(total-first))
	}
	out.put("driver.first_row_ms", median(firsts)*1e3, "ms")
	out.put("driver.drain_rows_per_s", median(drains), "rows/s")
	return nil
}
