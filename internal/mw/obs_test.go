package mw

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// TestBatchEmitsEvent: a batch leaves one batch span, and the record rebuilt
// from it carries the batch's window, counter deltas, budgets and residency;
// its one scan span covers every row the root scan read.
func TestBatchEmitsEvent(t *testing.T) {
	ds := randDataset(20000, 5)
	m, trace, _ := newTracedMW(t, ds, Config{Staging: StageNone})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)

	batches := BatchRecords(trace)
	if len(batches) != 1 {
		t.Fatalf("batch recorded %d batch spans, want 1", len(batches))
	}
	bs := batches[0]
	if bs.Source != "server" || bs.NNodes != 1 || len(results) != 1 || results[0].Req.NodeID != 0 {
		t.Fatalf("batch = %+v, results = %+v", bs, results)
	}
	// The root predicate matches every row: the scan span read them all.
	scans := 0
	trace.EachProc(func(pv obs.ProcView) {
		for _, s := range pv.Spans {
			if s.Cat == obs.CatScan {
				scans++
				if s.Rows != int64(ds.N()) || s.Dur <= 0 {
					t.Errorf("scan span: %d rows over %d ns; want %d rows", s.Rows, s.Dur, ds.N())
				}
			}
		}
	})
	if scans != 1 {
		t.Errorf("%d scan spans, want 1", scans)
	}
	// The rest of the record, read off the same span: its window and counter
	// deltas are the meter's (one batch ran), and with nothing staged and the
	// root still open the budgets hold just its CC table.
	meter := m.Meter()
	if bs.Batch != 1 || bs.StartNS != 0 || bs.EndNS != int64(meter.Now()) {
		t.Errorf("batch %d window [%d, %d], want batch 1 over [0, %d]", bs.Batch, bs.StartNS, bs.EndNS, meter.Now())
	}
	for _, c := range sim.Counters() {
		if c == sim.CtrBatches {
			continue // ticks just before the span opens: it is the "batch" attribute
		}
		if got, want := bs.Deltas[c.String()], meter.Count(c); got != want {
			t.Errorf("delta %s = %d, want %d", c, got, want)
		}
	}
	if bs.MemUsedBytes != results[0].CC.Bytes() || bs.MemBudgetBytes != 0 || bs.FileUsedBytes != 0 ||
		bs.FilesLive != 0 || bs.NewFiles != 0 ||
		bs.NodesServer != 0 || bs.NodesFile != 0 || bs.NodesMemory != 0 {
		t.Errorf("budgets and residency = %+v", bs)
	}
}

// TestStagedMemRowsUnits pins the unit of the batch span's staged_mem_rows
// attribute: it counts rows, not bytes. The root batch under memory-only staging tees every table
// row into middleware memory, so the field must equal the dataset's row count
// exactly (a byte count would be larger by the row size).
func TestStagedMemRowsUnits(t *testing.T) {
	ds := randDataset(400, 12)
	m, trace, _ := newTracedMW(t, ds, Config{Staging: StageMemoryOnly, Memory: 4 * ds.Bytes()})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}

	batches := BatchRecords(trace)
	if len(batches) != 1 {
		t.Fatalf("%d batch spans, want 1", len(batches))
	}
	bs := batches[0]
	if got, want := bs.StagedMemRows, int64(ds.N()); got != want {
		t.Fatalf("StagedMemRows = %d, want %d rows (row count, not bytes)", got, want)
	}
	// Budget and residency at batch end: the staged rows and the root's open CC
	// table are what memory holds, against the configured budget; the root is
	// the one open node under the memory stage.
	if bs.MemUsedBytes != m.MemoryInUse() || bs.MemUsedBytes <= m.stagedMem || m.stagedMem == 0 ||
		bs.MemBudgetBytes != 4*ds.Bytes() {
		t.Errorf("memory = %d of %d, want %d (staged %d) of %d", bs.MemUsedBytes, bs.MemBudgetBytes, m.MemoryInUse(), m.stagedMem, 4*ds.Bytes())
	}
	if bs.NodesMemory != 1 || bs.NodesFile != 0 || bs.NodesServer != 0 {
		t.Errorf("residency server/file/memory = %d/%d/%d, want 0/0/1", bs.NodesServer, bs.NodesFile, bs.NodesMemory)
	}
	m.CloseNode(0)
}

// TestFallbackOnlyBatchEmitsEvent: a batch serviced entirely by the SQL
// fallback (nothing admitted to the scan) still leaves its batch span, with no
// scan nodes and the fallback node counted.
func TestFallbackOnlyBatchEmitsEvent(t *testing.T) {
	ds := randDataset(300, 9)
	// The root's honest CC estimate is ~26 entries; a 10-entry budget admits
	// nothing, so scheduling sends the root straight to the SQL fallback.
	m, trace, _ := newTracedMW(t, ds, Config{Staging: StageNone, Memory: 10 * cc.EntryBytes})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)

	if len(results) != 1 || !results[0].ViaSQL || results[0].Req.NodeID != 0 {
		t.Fatalf("results = %+v, want one SQL-fallback result for node 0", results)
	}
	batches := BatchRecords(trace)
	if len(batches) != 1 {
		t.Fatalf("fallback-only batch recorded %d batch spans, want 1", len(batches))
	}
	bs := batches[0]
	if bs.NNodes != 0 {
		t.Errorf("fallback-only batch counts scan nodes: %+v", bs)
	}
	if bs.NFallbacks != 1 {
		t.Errorf("batch fallbacks = %d, want 1", bs.NFallbacks)
	}
	if bs.Batch != 1 {
		t.Errorf("batch = %d, want 1", bs.Batch)
	}
}

// TestRequeueBatchEmitsEvent: when the scheduler's admission estimate proves
// too low mid-scan, the shed request is requeued and the batch span records
// it. The test first measures the children's true CC sizes with an
// unlimited budget, then replays with a budget that fits either child alone
// but not both.
func TestRequeueBatchEmitsEvent(t *testing.T) {
	ds := randDataset(800, 21)
	childReqs := func() []*Request {
		return []*Request{
			{NodeID: 1, ParentID: 0,
				Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}},
				Attrs: []int{1, 2, 3},
				Rows:  countMatching(ds, 0, 0, true), EstCC: 1},
			{NodeID: 2, ParentID: 0,
				Path:  predicate.Conj{{Attr: 0, Op: predicate.Ne, Val: 0}},
				Attrs: []int{1, 2, 3},
				Rows:  countMatching(ds, 0, 0, false), EstCC: 1},
		}
	}
	// drive returns each child's CC size and, per Step, the serviced node ids
	// next to that batch's record.
	drive := func(cfg Config) (map[int]int64, [][]int, []BatchRecord) {
		m, trace, _ := newTracedMW(t, ds, cfg)
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if err := m.Enqueue(childReqs()...); err != nil {
			t.Fatal(err)
		}
		m.CloseNode(0)
		sizes := map[int]int64{}
		var serviced [][]int
		for m.Pending() > 0 {
			results, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			if len(results) == 0 {
				t.Fatal("no progress with pending requests")
			}
			var ids []int
			for _, r := range results {
				sizes[r.Req.NodeID] = r.CC.Bytes()
				ids = append(ids, r.Req.NodeID)
				m.CloseNode(r.Req.NodeID)
			}
			serviced = append(serviced, ids)
		}
		return sizes, serviced, BatchRecords(trace)[1:] // drop the root batch
	}

	// Measurement pass: true table sizes under an unlimited budget.
	sizes, _, _ := drive(Config{Staging: StageNone})
	b1, b2 := sizes[1], sizes[2]
	rootNeed := rootRequest(ds).EstCC * cc.EntryBytes
	mem := rootNeed
	if b1 > mem {
		mem = b1
	}
	if b2 > mem {
		mem = b2
	}
	mem += cc.EntryBytes
	if mem >= b1+b2 {
		t.Fatalf("cannot construct requeue budget: max+margin %d >= sum %d", mem, b1+b2)
	}

	// Constrained pass: both children admitted on their (lying) 1-entry
	// estimates, mid-scan growth overflows the budget, one is shed.
	sizes, serviced, batches := drive(Config{Staging: StageNone, Memory: mem})
	if len(sizes) != 2 {
		t.Fatalf("serviced %d children, want 2 (all requests eventually fulfilled)", len(sizes))
	}
	if len(batches) != len(serviced) {
		t.Fatalf("%d batch spans for %d steps", len(batches), len(serviced))
	}
	requeueAt := -1
	for i := range batches {
		if batches[i].NRequeued > 0 {
			requeueAt = i
		}
	}
	if requeueAt < 0 {
		t.Fatalf("no batch recorded a requeue; batches = %+v", batches)
	}
	if bs := batches[requeueAt]; bs.NRequeued != 1 || bs.NNodes != 1 || len(serviced[requeueAt]) != 1 {
		t.Fatalf("requeue batch = %+v (serviced %v), want 1 serviced + 1 requeued", bs, serviced[requeueAt])
	}
	// The requeued node is the other child: it is serviced by a later batch.
	if requeueAt+1 >= len(serviced) || len(serviced[requeueAt+1]) != 1 ||
		serviced[requeueAt+1][0] == serviced[requeueAt][0] {
		t.Fatalf("requeued node not serviced next: steps = %v", serviced)
	}
}

// driveTreeObs runs a fixed two-level protocol under the given middleware
// configuration with a tracer on the engine and returns the Chrome trace
// (spans plus the counter tracks derived from the batch spans) and the NDJSON
// trace.
func driveTreeObs(t *testing.T, cfg Config) (chrome, nd []byte) {
	t.Helper()
	ds := randDataset(1500, 3)
	col := obs.NewTrace()
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	eng.SetTracer(col.Proc("drive", meter))
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	m, err := New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	drain := func() {
		for m.Pending() > 0 {
			results, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			if len(results) == 0 {
				t.Fatal("no progress with pending requests")
			}
		}
	}
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	drain()
	for v := 0; v < 3; v++ {
		err := m.Enqueue(&Request{
			NodeID: 1 + v, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: data.Value(v)}},
			Attrs: []int{1, 2, 3},
			Rows:  countMatching(ds, 0, data.Value(v), true),
			EstCC: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	m.CloseNode(0)
	drain()
	for id := 1; id <= 3; id++ {
		m.CloseNode(id)
	}

	var cb, nb bytes.Buffer
	if err := col.Write(&cb, "chrome"); err != nil {
		t.Fatal(err)
	}
	if err := col.Write(&nb, "ndjson"); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), nb.Bytes()
}

// TestObsByteDeterminism is the determinism contract of internal/obs end to
// end: for each configuration, the Chrome trace — counter tracks included —
// and the NDJSON trace are byte-for-byte identical across repeated runs and
// across GOMAXPROCS settings.
func TestObsByteDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"staged", Config{Staging: StageFileAndMemory}},
		// Fallback-only batches: a 10-entry budget admits nothing, so every
		// request is serviced by the SQL-fallback arms.
		{"fallback", Config{Staging: StageNone, Memory: 10 * cc.EntryBytes}},
		// Aux builds and keyset / TID-join scans.
		{"keyset", Config{Staging: StageNone, Access: AccessKeyset, AuxThreshold: 0.6}},
		{"tidjoin", Config{Staging: StageNone, Access: AccessTIDJoin, AuxThreshold: 0.6}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			refChrome, refND := driveTreeObs(t, tc.cfg)
			if len(refND) == 0 {
				t.Fatal("empty NDJSON trace")
			}
			if !bytes.Contains(refChrome, []byte(`"name":"tier_residency","ph":"C"`)) {
				t.Fatal("chrome trace has no counter tracks")
			}
			run := 0
			for _, procs := range []int{1, 4} {
				old := runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 2; rep++ {
					run++
					chrome, nd := driveTreeObs(t, tc.cfg)
					if !bytes.Equal(chrome, refChrome) {
						t.Errorf("run %d (GOMAXPROCS=%d): chrome trace differs", run, procs)
					}
					if !bytes.Equal(nd, refND) {
						t.Errorf("run %d (GOMAXPROCS=%d): ndjson trace differs", run, procs)
					}
				}
				runtime.GOMAXPROCS(old)
				if t.Failed() {
					break
				}
			}
		})
	}
}

// TestObsNeverPerturbsSimulation: attaching a tracer must leave the virtual
// clock, every counter and every result byte-identical to an uninstrumented
// run — spans read the meter, they never charge it.
func TestObsNeverPerturbsSimulation(t *testing.T) {
	fingerprint := func(instrument bool) string {
		ds := randDataset(1200, 7)
		meter := sim.NewDefaultMeter()
		eng := engine.New(meter, 0)
		cfg := Config{Staging: StageMemoryOnly, Memory: 4 * ds.Bytes()}
		if instrument {
			eng.SetTracer(obs.NewTrace().Proc("x", meter))
		}
		srv, err := engine.NewServer(eng, "cases", ds)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Dir = t.TempDir()
		m, err := New(srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		results, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		m.CloseNode(0)
		return fmt.Sprintf("%v %s %s", meter.Now(), meter.String(), results[0].CC.String())
	}
	if plain, instrumented := fingerprint(false), fingerprint(true); plain != instrumented {
		t.Errorf("observability perturbed the simulation\nplain:        %s\ninstrumented: %s", plain, instrumented)
	}
}

// TestUntracedStepDoesNoBatchBookkeeping is the disabled path: with no tracer
// attached a Step records nothing about its batch. It never walks the stages
// for the residency figures — a nil stage planted under an unused node id
// would crash residency(), as the traced arm shows it does. (What it allocates
// is pinned in alloc_test.go.)
func TestUntracedStepDoesNoBatchBookkeeping(t *testing.T) {
	ds := randDataset(3000, 12)
	cfg := Config{Staging: StageMemoryOnly, Memory: 4 * ds.Bytes()}
	// Only residency() and Close walk every source list; Close must not see
	// the poison.
	poisoned := func(m *Middleware) (step func() error) {
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		m.sources[-7] = []*stageData{nil}
		return func() (err error) {
			defer delete(m.sources, -7)
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			_, err = m.Step()
			return err
		}
	}
	m, _ := newMW(t, ds, cfg)
	if err := poisoned(m)(); err != nil {
		t.Fatalf("untraced Step computed the batch's residency: %v", err)
	}
	m, _, _ = newTracedMW(t, ds, cfg)
	if err := poisoned(m)(); err == nil {
		t.Fatal("traced Step survived the poisoned stage list: the untraced arm proves nothing")
	}
}
