package mw

import (
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// internal (white-box) tests; the black-box protocol tests live in
// smoke_test.go.

func randDataset(n int, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	s := data.NewSchema(4, 3, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		r := make(data.Row, 5)
		for j := 0; j < 4; j++ {
			r[j] = data.Value(rng.Intn(3))
		}
		r[4] = data.Value(rng.Intn(2))
		ds.Append(r)
	}
	return ds
}

func newMW(t *testing.T, ds *data.Dataset, cfg Config) (*Middleware, *engine.Server) {
	t.Helper()
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
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
	return m, srv
}

// BatchRecord is what one batch did, rebuilt from its span subtree alone: the
// fields are, one for one, those the deleted second per-batch record (obs's
// batch statistics) carried, which shows each recoverable from spans. Exported for the
// external test package.
type BatchRecord struct {
	Batch   int // 1-based batch ordinal: the "batch" attribute
	Source  string
	StartNS int64
	EndNS   int64

	NNodes        int // nodes the scan serviced: admitted, less those shed to the queue or to SQL
	NFallbacks    int // fallback children
	NRequeued     int
	NewFiles      int // stage-file children
	StagedMemRows int64

	Lanes []LaneRecord // lane children of a scan split over more than one lane, partition order

	Deltas map[string]int64 // every counter that moved, by name: Span.Deltas

	MemUsedBytes, MemBudgetBytes int64
	FileUsedBytes, FileBudget    int64
	FilesLive                    int
	NodesServer                  int
	NodesFile                    int
	NodesMemory                  int
}

// LaneRecord is one lane span of a split scan.
type LaneRecord struct {
	Lane      int   // 1-based
	ElapsedNS int64 // the lane span's duration
	Rows      int64
}

// LaneImbalanceNS is max − min lane elapsed; zero for a one-lane batch.
func (b *BatchRecord) LaneImbalanceNS() int64 {
	if len(b.Lanes) == 0 {
		return 0
	}
	lo, hi := b.Lanes[0].ElapsedNS, b.Lanes[0].ElapsedNS
	for _, l := range b.Lanes[1:] {
		lo, hi = min(lo, l.ElapsedNS), max(hi, l.ElapsedNS)
	}
	return hi - lo
}

// BatchRecords reads every finished batch back out of the trace, in record
// order.
func BatchRecords(trace *obs.Trace) []BatchRecord {
	var out []BatchRecord
	trace.EachProc(func(pv obs.ProcView) {
		batchAt := map[int64]int{}   // batch span id -> index in out
		scanOf := map[int64]int{}    // scan span id -> index in out
		admitted := map[int][]int{}  // index -> the scan span's nodes
		viaSQL := map[int][]int64{}  // index -> nodes of the fallback children
		for _, s := range pv.Spans { // record order: a parent precedes its children
			at := func(key string) int64 { return obs.AttrInt(s.Attrs, key, 0) }
			switch s.Cat {
			case obs.CatBatch:
				if s.Deltas == nil {
					continue
				}
				rec := BatchRecord{
					Batch: int(at("batch")), Source: s.Source,
					StartNS: s.Start, EndNS: s.Start + s.Dur,
					NRequeued: int(at("n_requeued")), StagedMemRows: at("staged_mem_rows"),
					Deltas:       map[string]int64{},
					MemUsedBytes: at("mem_used_bytes"), MemBudgetBytes: at("mem_budget_bytes"),
					FileUsedBytes: at("file_used_bytes"), FileBudget: at("file_budget_bytes"),
					FilesLive:   int(at("files_live")),
					NodesServer: int(at("nodes_server")), NodesFile: int(at("nodes_file")), NodesMemory: int(at("nodes_memory")),
				}
				s.Deltas.EachNonZero(func(c sim.Counter, n int64) { rec.Deltas[c.String()] = n })
				batchAt[s.ID] = len(out)
				out = append(out, rec)
			case obs.CatScan:
				if i, ok := batchAt[s.Parent]; ok {
					scanOf[s.ID], admitted[i] = i, s.Nodes
				}
			case obs.CatLane:
				if i, ok := scanOf[s.Parent]; ok && s.NParts > 1 {
					out[i].Lanes = append(out[i].Lanes, LaneRecord{Lane: s.Part + 1, ElapsedNS: s.Dur, Rows: s.Rows})
				}
			case obs.CatStage:
				if i, ok := batchAt[s.Parent]; ok && s.Name == "stage-file" {
					out[i].NewFiles++
				}
			case obs.CatFallback:
				if i, ok := batchAt[s.Parent]; ok {
					out[i].NFallbacks++
					viaSQL[i] = append(viaSQL[i], at("node"))
				}
			}
		}
		for i := range out {
			n := len(admitted[i]) - out[i].NRequeued
			for _, id := range admitted[i] {
				if slices.Contains(viaSQL[i], int64(id)) {
					n-- // admitted to the scan, shed mid-scan with nothing left beside it
				}
			}
			out[i].NNodes = n
		}
	})
	return out
}

func rootRequest(ds *data.Dataset) *Request {
	attrs := make([]int, ds.Schema.NumAttrs())
	for i := range attrs {
		attrs[i] = i
	}
	var est int64
	for _, a := range ds.Schema.Attrs {
		est += int64(a.Card)
	}
	return &Request{
		NodeID: 0, ParentID: -1, Attrs: attrs,
		Rows:  int64(ds.N()),
		EstCC: est*int64(ds.Schema.Class.Card) + int64(ds.Schema.Class.Card),
	}
}

func TestRootCountsMatchReference(t *testing.T) {
	ds := randDataset(500, 1)
	m, _ := newMW(t, ds, Config{})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	want := cc.FromDataset(ds, []int{0, 1, 2, 3, 4}, nil)
	if !results[0].CC.Equal(want) {
		t.Errorf("root CC differs from reference:\n got %v\nwant %v", results[0].CC, want)
	}
	if results[0].Source != "server" {
		t.Errorf("source = %q", results[0].Source)
	}
	m.CloseNode(0)
	if m.MemoryInUse() != 0 {
		t.Errorf("memory in use after close: %d", m.MemoryInUse())
	}
}

func TestChildCountsMatchReferenceAllSources(t *testing.T) {
	ds := randDataset(600, 2)
	for _, cfg := range []Config{
		{Staging: StageNone},
		{Staging: StageMemoryOnly},
		{Staging: StageFileOnly, FilePolicy: FileSingleton},
		{Staging: StageFileOnly, FilePolicy: FilePerNode},
	} {
		m, _ := newMW(t, ds, cfg)
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		// Enqueue two children under the root, then close it.
		childA := &Request{
			NodeID: 1, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
			Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, 1, true), EstCC: 100,
		}
		childB := &Request{
			NodeID: 2, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Ne, Val: 1}},
			Attrs: []int{0, 1, 2, 3}, Rows: countMatching(ds, 0, 1, false), EstCC: 100,
		}
		if err := m.Enqueue(childA, childB); err != nil {
			t.Fatal(err)
		}
		m.CloseNode(0)
		var got [2]*cc.Table
		for m.Pending() > 0 {
			results, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				got[r.Req.NodeID-1] = r.CC.Clone() // the table is the middleware's again after CloseNode
				m.CloseNode(r.Req.NodeID)
			}
		}
		wantA := cc.FromDataset(ds, []int{1, 2, 3, 4}, childA.Path.Eval)
		wantB := cc.FromDataset(ds, []int{0, 1, 2, 3, 4}, childB.Path.Eval)
		if got[0] == nil || !got[0].Equal(wantA) {
			t.Errorf("cfg %v/%v: child A CC differs", cfg.Staging, cfg.FilePolicy)
		}
		if got[1] == nil || !got[1].Equal(wantB) {
			t.Errorf("cfg %v/%v: child B CC differs", cfg.Staging, cfg.FilePolicy)
		}
	}
}

func countMatching(ds *data.Dataset, attr int, val data.Value, eq bool) int64 {
	var n int64
	for _, r := range ds.Rows {
		if (r[attr] == val) == eq {
			n++
		}
	}
	return n
}

func TestSQLFallbackCountsMatchScanCounts(t *testing.T) {
	ds := randDataset(400, 3)
	// A memory budget below the root estimate forces the SQL fallback.
	m, srv := newMW(t, ds, Config{Memory: 512})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].ViaSQL {
		t.Fatalf("expected SQL fallback, got %+v", results[0])
	}
	want := cc.FromDataset(ds, []int{0, 1, 2, 3, 4}, nil)
	if !results[0].CC.Equal(want) {
		t.Error("fallback CC differs from scan CC")
	}
	if srv.Meter().Count(sim.CtrSQLFallbacks) != 1 {
		t.Error("fallback not counted")
	}
}

func TestCountsSQLRendersAndParses(t *testing.T) {
	ds := randDataset(300, 4)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	path := predicate.Conj{{Attr: 1, Op: predicate.Ne, Val: 0}}
	sql := CountsSQL(ds.Schema, "cases", path, []int{0, 2})
	if !strings.Contains(sql, "GROUP BY class, A1") || !strings.Contains(sql, "UNION ALL") {
		t.Errorf("unexpected SQL: %s", sql)
	}
	rs, err := srv.Engine().Exec(sql)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	got, err := CountsFromResult(ds.Schema, rs)
	if err != nil {
		t.Fatal(err)
	}
	want := cc.FromDataset(ds, []int{0, 2, 4}, path.Eval)
	if !got.Equal(want) {
		t.Errorf("SQL counts differ:\n got %v\nwant %v", got, want)
	}
}

func TestCountsSQLNoAttrs(t *testing.T) {
	ds := randDataset(100, 5)
	srv, _ := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	sql := CountsSQL(ds.Schema, "cases", nil, nil)
	rs, err := srv.Engine().Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountsFromResult(ds.Schema, rs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != int64(ds.N()) {
		t.Errorf("rows = %d, want %d", got.Rows(), ds.N())
	}
}

func TestEnqueueValidation(t *testing.T) {
	ds := randDataset(50, 6)
	m, _ := newMW(t, ds, Config{})
	r := rootRequest(ds)
	if err := m.Enqueue(r); err != nil {
		t.Fatal(err)
	}
	dup := *r
	if err := m.Enqueue(&dup); err == nil {
		t.Error("duplicate node id accepted")
	}
	orphan := &Request{NodeID: 99, ParentID: 42}
	if err := m.Enqueue(orphan); err == nil {
		t.Error("unknown parent accepted")
	}
}

func TestStepEmptyQueue(t *testing.T) {
	ds := randDataset(50, 7)
	m, _ := newMW(t, ds, Config{})
	results, err := m.Step()
	if err != nil || results != nil {
		t.Errorf("Step on empty queue = %v, %v", results, err)
	}
}

func TestNegativeBudgetRejected(t *testing.T) {
	ds := randDataset(50, 8)
	srv, _ := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if _, err := New(srv, Config{Memory: -1}); err == nil {
		t.Error("negative memory accepted")
	}
	if _, err := New(srv, Config{FileBudget: -1}); err == nil {
		t.Error("negative file budget accepted")
	}
}

func TestMaxBatchLimitsBatchSize(t *testing.T) {
	ds := randDataset(400, 9)
	m, _ := newMW(t, ds, Config{MaxBatch: 1})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	reqs := []*Request{
		{NodeID: 1, ParentID: 0, Path: predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}}, Attrs: []int{1}, Rows: 10, EstCC: 10},
		{NodeID: 2, ParentID: 0, Path: predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}}, Attrs: []int{1}, Rows: 10, EstCC: 10},
		{NodeID: 3, ParentID: 0, Path: predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 2}}, Attrs: []int{1}, Rows: 10, EstCC: 10},
	}
	if err := m.Enqueue(reqs...); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	steps := 0
	for m.Pending() > 0 {
		results, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("batch of %d with MaxBatch=1", len(results))
		}
		m.CloseNode(results[0].Req.NodeID)
		steps++
	}
	if steps != 3 {
		t.Errorf("%d steps, want 3", steps)
	}
}

func TestFileBudgetRespected(t *testing.T) {
	ds := randDataset(1000, 10)
	budget := ds.Bytes() / 4
	m, _ := newMW(t, ds, Config{
		Staging: StageFileOnly, FilePolicy: FilePerNode, FileBudget: budget,
	})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.FileBytesInUse() > budget {
		t.Errorf("file bytes %d exceed budget %d", m.FileBytesInUse(), budget)
	}
}

func TestCloseReleasesStagingDir(t *testing.T) {
	ds := randDataset(200, 11)
	srv, _ := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	m, err := New(srv, Config{Staging: StageFileOnly}) // default OS temp dir
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	dir := m.files.dir
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Errorf("staging dir %s survived Close", dir)
	}
}

func TestSchedulerPrefersSmallestEstCC(t *testing.T) {
	reqs := []*Request{
		{NodeID: 1, EstCC: 50},
		{NodeID: 2, EstCC: 10},
		{NodeID: 3, EstCC: 30},
		{NodeID: 4, EstCC: 10},
	}
	sortByEstCC(reqs)
	ids := []int{reqs[0].NodeID, reqs[1].NodeID, reqs[2].NodeID, reqs[3].NodeID}
	want := []int{2, 4, 3, 1}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v (Rule 3 with NodeID ties)", ids, want)
		}
	}
}

func TestSortByRowsDesc(t *testing.T) {
	reqs := []*Request{
		{NodeID: 1, Rows: 5}, {NodeID: 2, Rows: 50}, {NodeID: 3, Rows: 50},
	}
	sortByRowsDesc(reqs)
	if reqs[0].NodeID != 2 || reqs[1].NodeID != 3 || reqs[2].NodeID != 1 {
		t.Errorf("order = %v %v %v (Rule 5 with NodeID ties)",
			reqs[0].NodeID, reqs[1].NodeID, reqs[2].NodeID)
	}
}

// TestMemoryBudgetInvariant drives full tree builds at random budgets and
// asserts the middleware's accounted memory never exceeds the budget after
// any step.
func TestMemoryBudgetInvariant(t *testing.T) {
	f := func(seedIn uint16, budgetKB uint8) bool {
		seed := int64(seedIn)%100 + 1
		budget := (int64(budgetKB)%64 + 4) << 10
		ds := randDataset(300, seed)
		srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			return false
		}
		m, err := New(srv, Config{Memory: budget, Staging: StageMemoryOnly})
		if err != nil {
			return false
		}
		defer m.Close()
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			return false
		}
		// Drive manually: fulfil everything, never splitting further (one
		// level is enough to exercise admission + staging + fallback).
		for m.Pending() > 0 {
			results, err := m.Step()
			if err != nil || len(results) == 0 {
				return false
			}
			if m.MemoryInUse() > budget+int64(len(m.open))*0 {
				// Open results hold CC memory until closed; the sum of
				// staged + open must still respect the budget only after
				// closes, so check post-close below.
			}
			for _, r := range results {
				m.CloseNode(r.Req.NodeID)
			}
			if m.MemoryInUse() > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStagingModeStrings(t *testing.T) {
	for mode, want := range map[StagingMode]string{
		StageNone: "none", StageFileOnly: "file", StageMemoryOnly: "memory",
		StageFileAndMemory: "file+memory",
	} {
		if mode.String() != want {
			t.Errorf("%d.String() = %q", mode, mode.String())
		}
	}
	for p, want := range map[FilePolicy]string{
		FileSplitThreshold: "split-threshold", FilePerNode: "file-per-node", FileSingleton: "singleton",
	} {
		if p.String() != want {
			t.Errorf("policy %d = %q", p, p.String())
		}
	}
	for a, want := range map[ServerAccess]string{
		AccessScan: "scan", AccessKeyset: "keyset", AccessTIDJoin: "tid-join", AccessCopyTable: "copy-table",
	} {
		if a.String() != want {
			t.Errorf("access %d = %q", a, a.String())
		}
	}
}

// TestTraceEvents: every executed batch leaves one batch span, carrying the
// scheduling decisions (batch number, source, serviced nodes, staging) that
// are otherwise invisible to the client; the node ids themselves come back in
// Step's results.
func TestTraceEvents(t *testing.T) {
	ds := randDataset(400, 12)
	m, trace, _ := newTracedMW(t, ds, Config{Staging: StageMemoryOnly, Memory: 4 * ds.Bytes()})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	rootRes, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	child := &Request{
		NodeID: 1, ParentID: 0,
		Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
		Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, 1, true), EstCC: 50,
	}
	if err := m.Enqueue(child); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(1)

	batches := BatchRecords(trace)
	if len(batches) != 2 {
		t.Fatalf("%d batch stats, want 2", len(batches))
	}
	if batches[0].Source != "server" || batches[0].NNodes != 1 ||
		len(rootRes) != 1 || rootRes[0].Req.NodeID != 0 {
		t.Errorf("batch 0 = %+v, results %+v", batches[0], rootRes)
	}
	if batches[0].StagedMemRows == 0 {
		t.Errorf("root scan staged nothing: %+v", batches[0])
	}
	if batches[1].Source != "memory" {
		t.Errorf("child not serviced from memory: %+v", batches[1])
	}
	if batches[0].Batch != 1 || batches[1].Batch != 2 {
		t.Errorf("batch numbering: %d, %d", batches[0].Batch, batches[1].Batch)
	}
}

// TestPushdownTransmitsExactlyMatchingRows: for a server-sourced batch, the
// rows transmitted equal exactly the rows satisfying some scheduled node's
// predicate (§4.3.1: "each record fetched from the server to the middleware
// contributes to one or more of the counts").
func TestPushdownTransmitsExactlyMatchingRows(t *testing.T) {
	ds := randDataset(500, 13)
	m, srv := newMW(t, ds, Config{Staging: StageNone})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	pathA := predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}}
	pathB := predicate.Conj{{Attr: 1, Op: predicate.Ne, Val: 2}, {Attr: 2, Op: predicate.Eq, Val: 1}}
	reqs := []*Request{
		{NodeID: 1, ParentID: 0, Path: pathA, Attrs: []int{1, 2, 3}, Rows: 1, EstCC: 30},
		{NodeID: 2, ParentID: 0, Path: pathB, Attrs: []int{0, 3}, Rows: 1, EstCC: 30},
	}
	if err := m.Enqueue(reqs...); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	before := srv.Meter().Count(sim.CtrRowsTransmitted)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range ds.Rows {
		if pathA.Eval(r) || pathB.Eval(r) {
			want++
		}
	}
	got := srv.Meter().Count(sim.CtrRowsTransmitted) - before
	if got != want {
		t.Errorf("transmitted %d rows, want exactly %d", got, want)
	}
}

// TestNoPushdownTransmitsEverything: under the ablation every server scan
// ships the full table.
func TestNoPushdownTransmitsEverything(t *testing.T) {
	ds := randDataset(300, 14)
	m, srv := newMW(t, ds, Config{Staging: StageNone, NoFilterPushdown: true})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	child := &Request{
		NodeID: 1, ParentID: 0,
		Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}},
		Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, 0, true), EstCC: 30,
	}
	if err := m.Enqueue(child); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	before := srv.Meter().Count(sim.CtrRowsTransmitted)
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Meter().Count(sim.CtrRowsTransmitted) - before; got != int64(ds.N()) {
		t.Errorf("ablation transmitted %d rows, want all %d", got, ds.N())
	}
	// The counts table is nevertheless correct.
	want := cc.FromDataset(ds, []int{1, 2, 3, 4}, child.Path.Eval)
	if !results[0].CC.Equal(want) {
		t.Error("ablation changed the counts table")
	}
}

// TestSchedulerEvictsStagedMemoryBeforeSQLFallback: when staged data starves
// counts-table admission, the scheduler reclaims the staged memory (it is
// only an optimization) instead of pushing requests to the SQL fallback.
func TestSchedulerEvictsStagedMemoryBeforeSQLFallback(t *testing.T) {
	ds := randDataset(400, 15)
	rowMem := int64(ds.Schema.RowBytes()) + 24
	// Budget: the staged root data plus a little, but not enough for the
	// child's counts table on top.
	budget := int64(ds.N())*rowMem + 2<<10
	m, srv := newMW(t, ds, Config{Staging: StageMemoryOnly, Memory: budget})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.MemoryInUse() == 0 {
		t.Skip("root data was not staged; budget arithmetic changed")
	}
	// A child whose estimated counts table exceeds what is left beside the
	// staged data, but fits the total budget.
	child := &Request{
		NodeID: 1, ParentID: 0,
		Path:  predicate.Conj{{Attr: 0, Op: predicate.Ne, Val: 99}}, // all rows
		Attrs: []int{0, 1, 2, 3}, Rows: int64(ds.N()),
		EstCC: (budget - 4<<10) / cc.EntryBytes,
	}
	if err := m.Enqueue(child); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].ViaSQL {
		t.Error("request fell back to SQL although staged memory was reclaimable")
	}
	if srv.Meter().Count(sim.CtrSQLFallbacks) != 0 {
		t.Error("SQL fallback counted")
	}
	m.CloseNode(1)
}

// TestAuxStructureBuiltAndReused: with AccessKeyset, the keyset is built
// once the active fraction drops below AuxThreshold and reused for
// descendants.
func TestAuxStructureBuiltAndReused(t *testing.T) {
	ds := randDataset(1000, 16)
	m, srv := newMW(t, ds, Config{Access: AccessKeyset, AuxThreshold: 0.5})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	// A narrow child: fraction < 0.5 triggers the keyset build.
	pathA := predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}}
	child := &Request{
		NodeID: 1, ParentID: 0, Path: pathA,
		Attrs: []int{1, 2, 3}, Rows: countMatching(ds, 0, 1, true), EstCC: 60,
	}
	if err := m.Enqueue(child); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	res, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	want := cc.FromDataset(ds, []int{1, 2, 3, 4}, pathA.Eval)
	if !res[0].CC.Equal(want) {
		t.Error("keyset-serviced CC differs")
	}
	scansAfterBuild := srv.Meter().Count(sim.CtrServerScans)

	// A grandchild under the same keyset: the structure is reused (one
	// keyset re-scan, no new qualifying scan).
	pathB := pathA.And(predicate.Cond{Attr: 1, Op: predicate.Eq, Val: 0})
	grand := &Request{
		NodeID: 2, ParentID: 1, Path: pathB,
		Attrs: []int{2, 3}, Rows: 1, EstCC: 40,
	}
	if err := m.Enqueue(grand); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(1)
	res, err = m.Step()
	if err != nil {
		t.Fatal(err)
	}
	wantB := cc.FromDataset(ds, []int{2, 3, 4}, pathB.Eval)
	if !res[0].CC.Equal(wantB) {
		t.Error("reused-keyset CC differs")
	}
	if got := srv.Meter().Count(sim.CtrServerScans) - scansAfterBuild; got != 1 {
		t.Errorf("grandchild cost %d scans, want 1 (keyset reuse)", got)
	}
	m.CloseNode(2)
}

func TestConfigAccessor(t *testing.T) {
	ds := randDataset(20, 17)
	m, _ := newMW(t, ds, Config{MaxBatch: 3})
	if m.cfg.MaxBatch != 3 {
		t.Error("Config accessor")
	}
}
