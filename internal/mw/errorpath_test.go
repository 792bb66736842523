package mw

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Regression tests for the Step error paths: a failed scan must close its
// scan span, and failed staging-file creation/finalization must abort every
// outstanding writer so no file leaks on disk.

// newTracedMW is newMW with an obs collector attached to the engine; it
// returns the collector and root tracer alongside.
func newTracedMW(t *testing.T, ds *data.Dataset, cfg Config) (*Middleware, *obs.Collector, *obs.Tracer) {
	t.Helper()
	col := obs.NewCollector(true, false)
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	tr, _ := col.Proc("drive", meter)
	eng.SetTracer(tr)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, col, tr
}

// requireWellFormedNDJSON exports the trace and checks every line parses.
func requireWellFormedNDJSON(t *testing.T, col *obs.Collector) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf, "ndjson"); err != nil {
		t.Fatalf("export trace after error: %v", err)
	}
	var spans []map[string]any
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		spans = append(spans, m)
	}
	return spans
}

// TestScanErrorEndsScanSpan: when the batch's scan fails, Step must still
// close the scan span. A leaked span stays on the tracer stack and becomes
// the parent of every span opened afterwards, corrupting the trace shape.
func TestScanErrorEndsScanSpan(t *testing.T) {
	ds := randDataset(500, 31)
	dir := t.TempDir()
	m, col, tr := newTracedMW(t, ds, Config{
		Staging: StageFileOnly, FilePolicy: FileSingleton, Dir: dir,
	})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	child := &Request{
		NodeID: 1, ParentID: 0,
		Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
		Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, 1, true), EstCC: 40,
	}
	if err := m.Enqueue(child); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)

	// Sabotage the staging file the child batch will scan.
	files, err := filepath.Glob(filepath.Join(dir, "*.rows"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one staging file, got %v (err %v)", files, err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Fatal("Step succeeded with the staging file deleted")
	}

	// With the scan span properly ended, the tracer stack is empty again: a
	// fresh root-level span has no parent.
	probe := tr.Start(obs.CatBatch, "probe")
	probe.End()
	if probe.Parent != 0 {
		t.Errorf("span opened after the failed scan has parent %d, want 0 — the scan span leaked onto the tracer stack", probe.Parent)
	}
	spans := requireWellFormedNDJSON(t, col)
	found := false
	for _, s := range spans {
		if s["cat"] == "scan" {
			found = true
		}
	}
	if !found {
		t.Error("exported trace lost the failed batch's scan span")
	}
}

// twoRootRequests builds two independent root-level requests so one server
// batch plans two per-node staging files.
func twoRootRequests(ds *data.Dataset) []*Request {
	return []*Request{
		{NodeID: 0, ParentID: -1,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}},
			Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, 0, true), EstCC: 40},
		{NodeID: 1, ParentID: -1,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
			Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, 1, true), EstCC: 40},
	}
}

// TestCreateErrorAbortsEarlierWriters: when creating the batch's Nth staging
// file fails, the writers already created for the batch must be aborted —
// otherwise their files stay open and on disk with nothing registered to
// free them.
func TestCreateErrorAbortsEarlierWriters(t *testing.T) {
	ds := randDataset(500, 32)
	dir := t.TempDir()
	m, _ := newMW(t, ds, Config{Staging: StageFileOnly, FilePolicy: FilePerNode, Dir: dir})
	injected := errors.New("injected: create failed")
	m.files.createErr = func(seq int) error {
		if seq == 2 {
			return injected
		}
		return nil
	}
	if err := m.Enqueue(twoRootRequests(ds)...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); !errors.Is(err, injected) {
		t.Fatalf("Step error = %v, want the injected create failure", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("staging dir holds %d leaked files after create failure: %v", len(entries), entries)
	}
	if m.files.live != 0 {
		t.Errorf("fileStore reports %d live files, want 0", m.files.live)
	}
}

// TestFinishErrorAbortsRemainingWriters: when finalizing the batch's first
// staging file fails, the remaining tees' writers must be aborted (files
// removed) and the in-flight stage span ended.
func TestFinishErrorAbortsRemainingWriters(t *testing.T) {
	ds := randDataset(500, 33)
	dir := t.TempDir()
	m, col, tr := newTracedMW(t, ds, Config{
		Staging: StageFileOnly, FilePolicy: FilePerNode, Dir: dir,
	})
	injected := errors.New("injected: flush failed")
	m.files.finishErr = func(path string) error {
		if strings.Contains(path, "stage000001") {
			return injected
		}
		return nil
	}
	if err := m.Enqueue(twoRootRequests(ds)...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Step error = %v, want the injected finish failure", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("staging dir holds %d leaked files after finish failure: %v", len(entries), entries)
	}
	if m.files.live != 0 {
		t.Errorf("fileStore reports %d live files, want 0", m.files.live)
	}
	probe := tr.Start(obs.CatBatch, "probe")
	probe.End()
	if probe.Parent != 0 {
		t.Errorf("span opened after the failed finish has parent %d, want 0 — the stage span leaked onto the tracer stack", probe.Parent)
	}
	requireWellFormedNDJSON(t, col)
}

// TestTightBudgetParallelMatchesSequential: with a scan-start budget smaller
// than the worker count, the per-worker budget slice rounds to zero and
// (before the guard) every lane shed every request on its first counted row,
// pushing work to the SQL fallback that a one-lane scan completes from the
// staged file. The guarded plan must make Workers>1 reproduce the one-lane
// fallback/requeue decisions exactly.
func TestTightBudgetParallelMatchesSequential(t *testing.T) {
	ds := randDataset(600, 34)
	childPath := predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}}
	wantCC := cc.FromDataset(ds, []int{1, 4}, childPath.Eval)
	// Fits the child's real counts table with a little slack, but is far
	// below any plausible worker count's slice granularity.
	mem := wantCC.Bytes() + 10

	drive := func(workers int) string {
		m, srv := newMW(t, ds, Config{
			Staging: StageFileOnly, FilePolicy: FileSingleton,
			Memory: mem, Workers: workers,
		})
		// The root lies about its estimate to get admitted; its table
		// overflows mid-scan and falls back, while the singleton staging
		// file still captures the whole table.
		root := rootRequest(ds)
		root.EstCC = 1
		if err := m.Enqueue(root); err != nil {
			t.Fatal(err)
		}
		results, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || !results[0].ViaSQL {
			t.Fatalf("workers=%d: root result = %+v, want SQL fallback", workers, results[0])
		}
		child := &Request{
			NodeID: 1, ParentID: 0, Path: childPath,
			Attrs: []int{1}, Rows: countMatching(ds, 0, 0, true), EstCC: 1,
		}
		if err := m.Enqueue(child); err != nil {
			t.Fatal(err)
		}
		m.CloseNode(0)
		results, err = m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("workers=%d: %d child results", workers, len(results))
		}
		r := results[0]
		if !r.CC.Equal(wantCC) {
			t.Errorf("workers=%d: child CC differs from reference", workers)
		}
		return fmt.Sprintf("viaSQL=%v source=%s fallbacks=%d cc=%s",
			r.ViaSQL, r.Source, srv.Meter().Count(sim.CtrSQLFallbacks), r.CC.String())
	}

	want := drive(1)
	if !strings.Contains(want, "viaSQL=false source=file fallbacks=1") {
		t.Fatalf("sequential reference decisions unexpected: %s", want)
	}
	// Worker counts above the budget: the unguarded slice is
	// budget/workers == 0. (Moderate worker counts still shed by the
	// documented per-lane slice approximation; only the degenerate zero
	// slice must collapse to one lane.)
	for _, workers := range []int{int(mem) + 1, 1000} {
		if got := drive(workers); got != want {
			t.Errorf("workers=%d decisions diverge from sequential:\n got %s\nwant %s", workers, got, want)
		}
	}
}
