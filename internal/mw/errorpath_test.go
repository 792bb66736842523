package mw

import (
	"bytes"
	"encoding/json"
	"errors"
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

// newTracedMW is newMW with a tracer on the engine: every batch leaves its
// span subtree in the returned trace (BatchRecords reads it back); the root
// tracer comes alongside.
func newTracedMW(t *testing.T, ds *data.Dataset, cfg Config) (*Middleware, *obs.Trace, *obs.Tracer) {
	t.Helper()
	col := obs.NewTrace()
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	tr := col.Proc("drive", meter)
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
func requireWellFormedNDJSON(t *testing.T, col *obs.Trace) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := col.Write(&buf, "ndjson"); err != nil {
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
	m, col, tr := newTracedMW(t, ds, Config{Staging: StageFileOnly, FilePolicy: FileSingleton})
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
	files, err := filepath.Glob(filepath.Join(m.files.dir, "*.cols"))
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

// TestCopyTableErrorFailsStep: when the §4.3.3a copy fails — here its temp
// table's name is taken — Step returns the error instead of quietly scanning the
// base table (and retrying the copy on every later batch): the batch's staging
// writers are aborted, its spans closed, and the half-made stage is gone.
func TestCopyTableErrorFailsStep(t *testing.T) {
	ds := randDataset(500, 33)
	m, col, tr := newTracedMW(t, ds, Config{
		Staging: StageFileOnly, FilePolicy: FilePerNode, Access: AccessCopyTable, AuxThreshold: 0.9,
	})
	eng := m.srv.Engine()
	if _, err := eng.CreateTable("#tmp1", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	// Two of attribute 0's three values: below the threshold, so the batch
	// asks for a copy-table while it has two file tees open.
	if err := m.Enqueue(twoRootRequests(ds)...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil || !strings.Contains(err.Error(), "copy-table") {
		t.Fatalf("Step with the temp table's name taken: error %v, want the copy's", err)
	}
	if files, _ := filepath.Glob(filepath.Join(m.files.dir, "*")); len(files) != 0 {
		t.Errorf("aborted batch left staging files: %v", files)
	}
	if len(m.sources) != 0 {
		t.Errorf("aborted batch left %d stages registered", len(m.sources))
	}
	if names := eng.TableNames(); len(names) != 2 {
		t.Errorf("engine tables after the failed copy: %v", names)
	}
	probe := tr.Start(obs.CatBatch, "probe")
	probe.End()
	if probe.Parent != 0 {
		t.Errorf("span opened after the failed batch has parent %d, want 0", probe.Parent)
	}
	requireWellFormedNDJSON(t, col)
}

// TestCloseFreesLiveStages: closing a middleware mid-build frees the stages
// still live — here the §4.3.3a temp table of an abandoned AccessCopyTable
// build, which would otherwise stay in the engine the build shared — and
// reports an error a drop met.
func TestCloseFreesLiveStages(t *testing.T) {
	ds := randDataset(900, 34)
	m, srv := newMW(t, ds, Config{Access: AccessCopyTable, AuxThreshold: 0.9, MaxBatch: 1})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		val := data.Value(v)
		if err := m.Enqueue(&Request{
			NodeID: 1 + v, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: val}},
			Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, val, true), EstCC: 40,
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.CloseNode(0)
	// The second level, one node per batch: each gets its own copy-table.
	for i := 0; i < 2; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if names := srv.Engine().TableNames(); len(names) != 3 || m.Pending() != 1 {
		t.Fatalf("mid-build: tables %v, %d requests pending; want two copy-tables beside the base table and one request", names, m.Pending())
	}
	if err := srv.Engine().DropTable("#tmp2"); err != nil { // behind the middleware's back
		t.Fatal(err)
	}
	if err := m.Close(); err == nil || !strings.Contains(err.Error(), "#tmp2") {
		t.Errorf("Close with a stage's temp table already gone: error %v, want the failed drop's", err)
	}
	if names := srv.Engine().TableNames(); len(names) != 1 || names[0] != "cases" {
		t.Errorf("engine tables after Close: %v, want the base table alone", names)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
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
	m, _ := newMW(t, ds, Config{Staging: StageFileOnly, FilePolicy: FilePerNode})
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
	entries, err := os.ReadDir(m.files.dir)
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
	m, col, tr := newTracedMW(t, ds, Config{Staging: StageFileOnly, FilePolicy: FilePerNode})
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
	entries, err := os.ReadDir(m.files.dir)
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

// TestTightBudgetStagesDespiteFallback: under a budget a few bytes over the
// child's counts table, the root's table overflows mid-scan and falls back to
// SQL, while the singleton staging file still captures the whole table — and
// the child is counted from that file, exactly.
func TestTightBudgetStagesDespiteFallback(t *testing.T) {
	ds := randDataset(600, 34)
	childPath := predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}}
	wantCC := cc.FromDataset(ds, []int{1, 4}, childPath.Eval)
	// Fits the child's real counts table with a little slack.
	mem := wantCC.Bytes() + 10

	m, srv := newMW(t, ds, Config{Staging: StageFileOnly, FilePolicy: FileSingleton, Memory: mem})
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
		t.Fatalf("root result = %+v, want SQL fallback", results[0])
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
		t.Fatalf("%d child results", len(results))
	}
	r := results[0]
	if !r.CC.Equal(wantCC) {
		t.Errorf("child CC differs from reference")
	}
	if r.ViaSQL || r.Source != "file" || srv.Meter().Count(sim.CtrSQLFallbacks) != 1 {
		t.Errorf("child: viaSQL=%v source=%s fallbacks=%d, want the file and the root's one fallback",
			r.ViaSQL, r.Source, srv.Meter().Count(sim.CtrSQLFallbacks))
	}
}

// fileChild drives a singleton-file build one step past the root — the table is
// staged in one file — and enqueues a child whose batch will scan that file. It
// returns the file's path.
func fileChild(t *testing.T, m *Middleware, ds *data.Dataset) string {
	t.Helper()
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
	files, err := filepath.Glob(filepath.Join(m.files.dir, "*.cols"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one staging file, got %v (err %v)", files, err)
	}
	return files[0]
}

// TestCorruptStagingFileIsAnError: the group reader is fed from disk, so bytes
// that are not the code vectors the store wrote — a file cut short, inside a
// group or at a group boundary, a code past its dictionary — must come back
// from Step as a wrapped mw: error, never as an index panic inside the kernel;
// and the failed batch must leave nothing behind: scan and batch spans ended,
// the file-split tee it had opened aborted. (Row, column and dictionary counts
// and the dictionaries themselves are not in the file to be corrupted: a
// group's zone keeps them in memory.)
func TestCorruptStagingFileIsAnError(t *testing.T) {
	ds := randDataset(3000, 35) // three row groups in the file, the last one short
	group := 2 * engine.BlockRows * ds.Schema.NumCols()
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-7] }},
		{"truncated to two groups", func(b []byte) []byte { return b[:2*group] }},
		{"truncated to nothing", func(b []byte) []byte { return nil }},
		{"code past its dictionary", func(b []byte) []byte { b[0] = 3; return b }}, // attr 0 holds 3 values
		{"code past 255 in the second group", func(b []byte) []byte { b[group+11] = 0x40; return b }},
		{"one bit of the last group", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Threshold 1 makes the child batch split the file: it holds a tee
			// writer open when the read fails.
			m, col, tr := newTracedMW(t, ds, Config{Staging: StageFileOnly, Threshold: 1})
			path := fileChild(t, m, ds)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(b), 0o600); err != nil {
				t.Fatal(err)
			}
			_, err = m.Step()
			if err == nil || !strings.HasPrefix(err.Error(), "mw: ") {
				t.Fatalf("Step over the corrupt file returned %v, want a wrapped mw: error", err)
			}
			probe := tr.Start(obs.CatBatch, "probe")
			probe.End()
			if probe.Parent != 0 {
				t.Errorf("span opened after the failed scan has parent %d, want 0 — a scan or batch span leaked", probe.Parent)
			}
			requireWellFormedNDJSON(t, col)
			if files, _ := filepath.Glob(filepath.Join(m.files.dir, "*.cols")); len(files) != 1 || files[0] != path {
				t.Errorf("staging dir holds %v after the failed batch, want only the scanned file: the split's tee writer was not aborted", files)
			}
			if m.files.live != 1 {
				t.Errorf("fileStore reports %d live files, want 1", m.files.live)
			}
		})
	}
}

// TestSharedDirBuildsDoNotCollide: two middlewares given the same Dir — two
// file-staging sessions of one daemon — each work in a private subdirectory.
// Numbering their files from stage000001 in Dir itself, two interleaved builds
// created the same path and one read the other's bytes ("mw: read staging
// file: EOF"). Both trees must equal the in-memory reference, and Close —
// after a finished build or an abandoned one — must leave Dir empty.
func TestSharedDirBuildsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	dsA, dsB := randDataset(2500, 36), randDataset(1500, 37)
	type build struct {
		ds *data.Dataset
		m  *Middleware
		cc map[int]*cc.Table
	}
	var builds []*build
	for _, ds := range []*data.Dataset{dsA, dsB} {
		m, _ := newMW(t, ds, Config{Staging: StageFileOnly, FilePolicy: FilePerNode, Dir: dir})
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		builds = append(builds, &build{ds: ds, m: m, cc: map[int]*cc.Table{}})
	}
	// Interleave: one Step each, then the children, one Step each again.
	step := func(b *build) {
		results, err := b.m.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			b.cc[r.Req.NodeID] = r.CC
		}
	}
	for _, b := range builds {
		step(b)
	}
	for _, b := range builds {
		for v := 0; v < 3; v++ {
			val := data.Value(v)
			if err := b.m.Enqueue(&Request{
				NodeID: 1 + v, ParentID: 0,
				Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: val}},
				Attrs: []int{1, 2, 3}, Rows: countMatching(b.ds, 0, val, true), EstCC: 40,
			}); err != nil {
				t.Fatal(err)
			}
		}
		b.m.CloseNode(0)
	}
	for builds[0].m.Pending() > 0 || builds[1].m.Pending() > 0 {
		for _, b := range builds {
			if b.m.Pending() > 0 {
				step(b)
			}
		}
	}
	for i, b := range builds {
		for v := 0; v < 3; v++ {
			path := predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: data.Value(v)}}
			want := cc.FromDataset(b.ds, []int{1, 2, 3, 4}, path.Eval)
			if got := b.cc[1+v]; got == nil || !got.Equal(want) {
				t.Errorf("build %d node %d: CC table differs from the reference", i, 1+v)
			}
		}
	}
	// Build 0 finishes; build 1 is abandoned with its children's files live.
	for id := 1; id <= 3; id++ {
		builds[0].m.CloseNode(id)
	}
	if builds[1].m.files.live == 0 {
		t.Fatal("the abandoned build holds no staging file: the test no longer covers the leak")
	}
	for _, b := range builds {
		if err := b.m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("the callers' Dir after both Close: %v (err %v), want it empty", entries, err)
	}
}
