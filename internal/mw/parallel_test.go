package mw

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/storage"
)

// countWhere counts dataset rows satisfying pred.
func countWhere(ds *data.Dataset, pred func(data.Row) bool) int64 {
	var n int64
	for _, r := range ds.Rows {
		if pred(r) {
			n++
		}
	}
	return n
}

// groupRow decodes row i of g.
func groupRow(g *storage.ColGroup, i int32) data.Row {
	row := make(data.Row, g.NumCols())
	for c := range row {
		row[c] = g.Dict(c)[g.Codes(c)[i]]
	}
	return row
}

// stagedFileRows reads a staging file back through its scan source and
// returns its rows in file order, checking on the way that the zone the store
// keeps in memory for each group describes the group on disk.
func stagedFileRows(t *testing.T, m *Middleware, sf *stageFile) []data.Row {
	t.Helper()
	src := m.files.source(sf, new(groupBuf))
	defer src.close()
	var rows []data.Row
	for gi := 0; gi < src.NumGroups(); gi++ {
		g, err := src.Read(gi)
		if err != nil {
			t.Fatal(err)
		}
		for c, z := 0, src.Zone(gi); c < g.NumCols(); c++ {
			if z.NumRows() != g.NumRows() || !reflect.DeepEqual(z.Dict(c), g.Dict(c)) || !reflect.DeepEqual(z.CodeCounts(c), g.CodeCounts(c)) {
				t.Fatalf("%s group %d column %d: the zone kept in memory differs from the group on disk", sf.path, gi, c)
			}
		}
		for i := 0; i < g.NumRows(); i++ {
			rows = append(rows, groupRow(g, int32(i)))
		}
	}
	if int64(len(rows)) != sf.rows {
		t.Fatalf("%s holds %d rows, registered with %d", sf.path, len(rows), sf.rows)
	}
	return rows
}

// liveFiles returns the middleware's stages that are registered staging files,
// by the file's base name.
func liveFiles(m *Middleware) map[string]*stageData {
	files := map[string]*stageData{}
	for _, list := range m.sources {
		for _, sd := range list {
			if sd.file != nil {
				files[filepath.Base(sd.file.path)] = sd
			}
		}
	}
	return files
}

// driveTree runs a fixed three-level classification protocol against a fresh
// middleware and returns a fingerprint of everything observable: every
// fulfilled CC table, each result's source, the rows of every staging file on
// disk after every step, in file order (how a lane count or a scan path cuts
// them into row groups is not observable), and, when withMeter is set, the
// final counters and virtual clock. Two runs that produce equal fingerprints
// behaved identically as far as a client can tell. On the way everything is held
// against the row-at-a-time reference, which shares nothing with the scan: every
// CC table must equal the one cc.Table.AddRow counts from the dataset's rows the
// node's path selects, and every staging file must hold, in table order, the
// rows some path of the nodes it covers selects.
func driveTree(t *testing.T, cfg Config, rows int, withMeter bool) string {
	t.Helper()
	ds := randDataset(rows, 3)
	m, _ := newMW(t, ds, cfg)
	paths := map[int]predicate.Conj{} // by node, as enqueued

	var sb strings.Builder
	snapshotFiles := func() {
		entries, err := os.ReadDir(m.files.dir)
		if err != nil {
			t.Fatal(err)
		}
		live := liveFiles(m)
		for _, e := range entries { // ReadDir sorts by name
			sd := live[e.Name()]
			if sd == nil {
				t.Fatalf("staging file %s on disk is not registered", e.Name())
			}
			var covered []predicate.Conj
			for _, id := range sd.keyNodes {
				covered = append(covered, paths[id])
			}
			want, filter := []data.Row{}, predicate.Or(covered...)
			for _, row := range ds.Rows {
				if filter.Eval(row) {
					want = append(want, row)
				}
			}
			got := stagedFileRows(t, m, sd.file)
			if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("staging file %s for nodes %v holds %d rows, the table has %d matching %v (or content differs)",
					e.Name(), sd.keyNodes, len(got), len(want), filter)
			}
			h, buf := fnv.New64a(), []byte(nil)
			for _, row := range got {
				for _, v := range row {
					buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(v))
					h.Write(buf)
				}
			}
			fmt.Fprintf(&sb, "file %s rows=%d fnv=%x\n", e.Name(), sd.file.rows, h.Sum64())
		}
	}
	step := func() int {
		results, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(results, func(i, j int) bool { return results[i].Req.NodeID < results[j].Req.NodeID })
		for _, r := range results {
			counted := append(append([]int{}, r.Req.Attrs...), ds.Schema.ClassIndex())
			if want := cc.FromDataset(ds, counted, r.Req.Path.Eval); !r.CC.Equal(want) {
				t.Fatalf("node %d (%v) from %s: cc = %s, counted row by row %s", r.Req.NodeID, r.Req.Path, r.Source, r.CC, want)
			}
			fmt.Fprintf(&sb, "node %d src=%s sql=%v rows=%d cc=%s\n",
				r.Req.NodeID, r.Source, r.ViaSQL, r.CC.Rows(), r.CC.String())
		}
		snapshotFiles()
		return len(results)
	}
	drain := func() {
		for m.Pending() > 0 {
			if step() == 0 {
				t.Fatal("pending requests but Step produced no results")
			}
		}
	}

	enqueue := func(r *Request) {
		paths[r.NodeID] = r.Path
		if err := m.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	enqueue(rootRequest(ds))
	drain()

	// Split the root on attribute 0 (cardinality 3).
	for v := 0; v < 3; v++ {
		val := data.Value(v)
		enqueue(&Request{
			NodeID: 1 + v, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: val}},
			Attrs: []int{1, 2, 3},
			Rows:  countWhere(ds, func(r data.Row) bool { return r[0] == val }),
			EstCC: 40,
		})
	}
	m.CloseNode(0)
	drain()

	// Split node 1 on attribute 1; leave nodes 2 and 3 as leaves.
	for v := 0; v < 3; v++ {
		val := data.Value(v)
		enqueue(&Request{
			NodeID: 4 + v, ParentID: 1,
			Path: predicate.Conj{
				{Attr: 0, Op: predicate.Eq, Val: 0},
				{Attr: 1, Op: predicate.Eq, Val: val},
			},
			Attrs: []int{2, 3},
			Rows:  countWhere(ds, func(r data.Row) bool { return r[0] == 0 && r[1] == val }),
			EstCC: 25,
		})
	}
	for id := 1; id <= 3; id++ {
		m.CloseNode(id)
	}
	drain()
	for id := 4; id <= 6; id++ {
		m.CloseNode(id)
	}

	if withMeter {
		fmt.Fprintf(&sb, "clock %d\nmeter %s\n", m.Meter().Now(), m.Meter().String())
	}
	return sb.String()
}

// TestParallelMatchesSequential: for every staging mode, the CC tables,
// result sources and staged files' rows produced with Workers ∈ {2, 4} are
// identical to the one-lane run's. (The virtual clock legitimately
// differs — parallelism is the point — so the meter is excluded here and
// covered by TestParallelDeterministicAcrossRuns.) The empty table is the
// degenerate input: a zero-group columnar copy at the root and, under file
// staging, a zero-row staged file below it — sources with nothing to split,
// which must run one lane and return empty CC tables at any Workers.
func TestParallelMatchesSequential(t *testing.T) {
	for _, rows := range []int{2000, 0} {
		for _, mode := range []StagingMode{StageNone, StageFileOnly, StageMemoryOnly, StageFileAndMemory} {
			want := driveTree(t, Config{Staging: mode, Workers: 1}, rows, false)
			if rows == 0 {
				assertEmptyCounts(t, want)
			}
			for _, w := range []int{2, 4} {
				got := driveTree(t, Config{Staging: mode, Workers: w}, rows, false)
				if got != want {
					t.Errorf("rows=%d staging=%v workers=%d: output differs from sequential\n got:\n%s\nwant:\n%s",
						rows, mode, w, got, want)
				}
			}
		}
	}
}

// assertEmptyCounts checks a driveTree fingerprint over an empty table: all
// seven nodes serviced, each with an empty CC table.
func assertEmptyCounts(t *testing.T, print string) {
	t.Helper()
	nodes := 0
	for _, line := range strings.Split(print, "\n") {
		if !strings.HasPrefix(line, "node ") {
			continue
		}
		nodes++
		if !strings.HasSuffix(line, " rows=0 cc="+cc.New().String()) {
			t.Errorf("empty table produced a non-empty counts table: %s", line)
		}
	}
	if nodes != 7 {
		t.Errorf("empty table serviced %d nodes, want 7:\n%s", nodes, print)
	}
}

// TestEmptyMemoryStageRunsOneLane: a memory stage holding no rows cannot
// arise through the protocol (a tee that captured nothing registers no
// memory tier), but the lane planner must not depend on that: with nothing
// to split the batch runs one lane and returns an empty CC table.
func TestEmptyMemoryStageRunsOneLane(t *testing.T) {
	ds := randDataset(50, 3)
	m, trace, _ := newTracedMW(t, ds, Config{Staging: StageNone, Workers: 4})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	m.newStage([]int{0}).mem = []*storage.ColGroup{}
	child := &Request{
		NodeID: 1, ParentID: 0,
		Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
		Attrs: []int{1, 2, 3}, EstCC: 40,
	}
	if err := m.Enqueue(child); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Source != "memory" || results[0].CC.Rows() != 0 || results[0].CC.Entries() != 0 {
		t.Fatalf("results = %+v, want one empty CC table from memory", results)
	}
	batches := BatchRecords(trace)
	if bs := batches[len(batches)-1]; bs.Source != "memory" || bs.Lanes != nil {
		t.Errorf("empty memory stage did not run one lane: %+v", bs)
	}
}

// TestParallelDeterministicAcrossRuns: with Workers=4 the complete run —
// including every counter and the virtual clock — is bit-for-bit
// reproducible across repeated runs and across GOMAXPROCS settings, i.e.
// goroutine interleaving never leaks into the simulation.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Staging: StageFileAndMemory, Workers: 4}
	var prints []string
	for _, procs := range []int{1, runtime.NumCPU()} {
		old := runtime.GOMAXPROCS(procs)
		prints = append(prints, driveTree(t, cfg, 2000, true), driveTree(t, cfg, 2000, true))
		runtime.GOMAXPROCS(old)
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Fatalf("run %d differs from run 0:\n got:\n%s\nwant:\n%s", i, prints[i], prints[0])
		}
	}
}

// parallelStageConfigs are the configurations exercising the once-serial
// pipeline stages: SQL-fallback arms (a budget below every estimate sends
// all requests to the fallback) and the three §4.3.3 auxiliary access paths
// (partitioned builds plus partitioned keyset/TID-join scans).
func parallelStageConfigs() map[string]Config {
	return map[string]Config{
		"fallback-heavy": {Staging: StageNone, Memory: 480}, // 12 entries: admits nothing
		"keyset":         {Staging: StageNone, Access: AccessKeyset, AuxThreshold: 0.6},
		"tid-join":       {Staging: StageNone, Access: AccessTIDJoin, AuxThreshold: 0.6},
		"copy-table":     {Staging: StageNone, Access: AccessCopyTable, AuxThreshold: 0.6},
	}
}

// TestParallelFallbackAuxMatchSequential: for the fallback-heavy and
// auxiliary-structure workloads, every client-observable output with
// Workers ∈ {2, 4, 8} is identical to the sequential run — parallel fallback
// arms and partitioned aux builds/scans change where work executes, never
// its outcome.
func TestParallelFallbackAuxMatchSequential(t *testing.T) {
	for name, cfg := range parallelStageConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			base := cfg
			base.Workers = 1
			want := driveTree(t, base, 2000, false)
			for _, w := range []int{2, 4, 8} {
				c := cfg
				c.Workers = w
				if got := driveTree(t, c, 2000, false); got != want {
					t.Errorf("workers=%d: output differs from sequential\n got:\n%s\nwant:\n%s", w, got, want)
				}
			}
		})
	}
}

// TestParallelFallbackAuxDeterministicAcrossRuns: with Workers=4 the
// fallback-heavy and aux-path runs — counters and virtual clock included —
// are bit-for-bit reproducible across reruns and GOMAXPROCS settings.
func TestParallelFallbackAuxDeterministicAcrossRuns(t *testing.T) {
	for name, cfg := range parallelStageConfigs() {
		cfg := cfg
		cfg.Workers = 4
		t.Run(name, func(t *testing.T) {
			var prints []string
			for _, procs := range []int{1, runtime.NumCPU()} {
				old := runtime.GOMAXPROCS(procs)
				prints = append(prints, driveTree(t, cfg, 2000, true), driveTree(t, cfg, 2000, true))
				runtime.GOMAXPROCS(old)
			}
			for i := 1; i < len(prints); i++ {
				if prints[i] != prints[0] {
					t.Fatalf("run %d differs from run 0:\n got:\n%s\nwant:\n%s", i, prints[i], prints[0])
				}
			}
		})
	}
}

// TestPlanParallelPartitionsAuxPaths: keyset and TID-join batches must not
// collapse to one lane — planLanes returns a multi-lane plan over the captured
// row set, split by row group like every other source.
func TestPlanParallelPartitionsAuxPaths(t *testing.T) {
	for _, access := range []ServerAccess{AccessKeyset, AccessTIDJoin} {
		ds := randDataset(17000, 3) // five row groups
		m, _ := newMW(t, ds, Config{
			Staging: StageNone, Access: access, AuxThreshold: 0.6, Workers: 4,
		})
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		// One child covering ~1/3 of the rows: below AuxThreshold, so the
		// batch qualifies for an auxiliary structure.
		err := m.Enqueue(&Request{
			NodeID: 1, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
			Attrs: []int{1, 2, 3},
			Rows:  countWhere(ds, func(r data.Row) bool { return r[0] == 1 }),
			EstCC: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.CloseNode(0)
		b := m.schedule()
		if b == nil || b.kind != srcServer {
			t.Fatalf("access=%v: expected a server batch, got %+v", access, b)
		}
		r, err := m.beginBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := r.planLanes()
		if err != nil {
			t.Fatal(err)
		}
		if sp.nworkers != 4 {
			t.Errorf("access=%v: planLanes nworkers = %d, want 4", access, sp.nworkers)
		}
		if rows, ok := sp.groups.(*engine.RowSet); !ok || int64(rows.Size()) != b.reqs[0].Rows {
			t.Errorf("access=%v: the plan's source is %T, want the batch's %d captured rows", access, sp.groups, b.reqs[0].Rows)
		}
		checkBounds(t, sp.bounds, sp.nworkers, sp.groups.NumGroups())
	}
}

// TestParallelFallbackImprovesVirtualTime: a fallback-only batch with
// Workers=4 finishes in strictly less virtual time than serial — the
// request's GROUP BY arms scan concurrently on forked lanes.
func TestParallelFallbackImprovesVirtualTime(t *testing.T) {
	elapsed := func(workers int) time.Duration {
		ds := randDataset(8000, 3)
		// Budget below the root estimate: straight to the SQL fallback.
		m, _ := newMW(t, ds, Config{Staging: StageNone, Memory: 480, Workers: workers})
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		results, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || !results[0].ViaSQL {
			t.Fatalf("workers=%d: expected a fallback result, got %+v", workers, results)
		}
		m.CloseNode(0)
		return m.Meter().Now()
	}
	seq, par := elapsed(1), elapsed(4)
	if par >= seq {
		t.Errorf("workers=4 fallback virtual time %v not below workers=1 %v", par, seq)
	}
}

// TestParallelAuxImprovesVirtualTime: for the keyset and TID-join access
// modes, the child-level phase (aux build + partitioned aux scans) with
// Workers=4 takes strictly less virtual time than serial.
func TestParallelAuxImprovesVirtualTime(t *testing.T) {
	for _, access := range []ServerAccess{AccessKeyset, AccessTIDJoin} {
		elapsed := func(workers int) time.Duration {
			ds := randDataset(8000, 3)
			m, _ := newMW(t, ds, Config{
				Staging: StageNone, Access: access, AuxThreshold: 0.6, Workers: workers,
			})
			if err := m.Enqueue(rootRequest(ds)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Step(); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 3; v++ {
				val := data.Value(v)
				err := m.Enqueue(&Request{
					NodeID: 1 + v, ParentID: 0,
					Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: val}},
					Attrs: []int{1, 2, 3},
					Rows:  countWhere(ds, func(r data.Row) bool { return r[0] == val }),
					EstCC: 40,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			m.CloseNode(0)
			snap := m.Meter().Snapshot()
			for m.Pending() > 0 {
				if _, err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			for id := 1; id <= 3; id++ {
				m.CloseNode(id)
			}
			return m.Meter().Since(snap)
		}
		seq, par := elapsed(1), elapsed(4)
		if par >= seq {
			t.Errorf("access=%v: workers=4 aux-phase virtual time %v not below workers=1 %v", access, par, seq)
		}
	}
}

// TestParallelImprovesVirtualTime: on a server-scan batch the parallel cost
// model must pay off — four lanes over disjoint row-group ranges finish the
// root scan in strictly less virtual time than one lane.
func TestParallelImprovesVirtualTime(t *testing.T) {
	elapsed := func(workers int) time.Duration {
		ds := randDataset(17000, 3)
		m, _ := newMW(t, ds, Config{Staging: StageNone, Workers: workers})
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		m.CloseNode(0)
		return m.Meter().Now()
	}
	seq, par := elapsed(1), elapsed(4)
	if par >= seq {
		t.Errorf("workers=4 virtual time %v not below workers=1 %v", par, seq)
	}
}

// TestLaneZeroStreamsFileTee: lane 0 of a scan writes the row groups its file
// tees fill straight into the staging file instead of holding them until the
// merge — held, a one-lane root scan under file staging kept a copy of the
// whole table in memory, outside the budget. The staged file must come out
// with the rows, in the order, that later lanes' hold-and-append produces.
func TestLaneZeroStreamsFileTee(t *testing.T) {
	ds := randDataset(9000, 5) // three row groups, so Workers=3 really splits
	// One lane, driven phase by phase so shard 0 can be inspected between
	// the scan and the merge.
	m, _ := newMW(t, ds, Config{Staging: StageFileOnly})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	r, err := m.beginBatch(m.schedule())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := r.planLanes()
	if err != nil || sp.nworkers != 1 || len(r.plan.fileTees) != 1 {
		t.Fatalf("%d lanes, %d file tees, error %v; want 1 and 1", sp.nworkers, len(r.plan.fileTees), err)
	}
	sh := r.newShard(0, 1)
	sh.hi = sp.groups.NumGroups()
	if err := r.scanLane(sp, m.meter, sh); err != nil {
		t.Fatal(err)
	}
	if n := len(sh.files[0].groups); n != 0 {
		t.Errorf("shard 0 holds %d filled groups of its file tee", n)
	}
	full := int64(ds.N() / engine.BlockRows * engine.BlockRows)
	if got := r.plan.fileTees[0].writer.sf.rows; got != full || sh.files[0].rows != int64(ds.N()) {
		t.Errorf("%d of %d captured rows streamed before the merge, want every full group: %d of %d",
			got, sh.files[0].rows, full, ds.N())
	}
	r.mergeShards([]*workerShard{sh})
	if _, err := m.finishBatch(r); err != nil {
		t.Fatal(err)
	}
	streamed := stagedFileRows(t, m, m.sources[0][0].file)

	// Three lanes: lanes 1 and 2 hold their groups and append after the barrier.
	mb, _ := newMW(t, ds, Config{Staging: StageFileOnly, Workers: 3})
	if err := mb.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Step(); err != nil {
		t.Fatal(err)
	}
	held := stagedFileRows(t, mb, mb.sources[0][0].file)

	if !reflect.DeepEqual(streamed, ds.Rows) {
		t.Error("the streamed file does not hold the table's rows in order")
	}
	if !reflect.DeepEqual(held, ds.Rows) {
		t.Error("the three-lane file does not hold the table's rows in order")
	}
	if a, b := m.sources[0][0].file.bytes, mb.sources[0][0].file.bytes; a != b || a != ds.Bytes() {
		t.Errorf("files account for %d and %d bytes, table %d", a, b, ds.Bytes())
	}
}
