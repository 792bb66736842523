package mw

import (
	"context"
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
			if z.NumRows() != g.NumRows() || !reflect.DeepEqual(z.Dict(c), g.Dict(c)) {
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

// procsRuns runs drive once at GOMAXPROCS 1 and once at each of procs, and
// fails unless every run's output is the first's. A batch that stages nothing
// and whose budget cannot police runs as goroutine segments once GOMAXPROCS
// is 2 or more, and segments must not show in any output — trees, staging
// files, counters or the virtual clock.
func procsRuns(t *testing.T, procs []int, drive func() string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := drive()
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		if got := drive(); got != want {
			t.Errorf("GOMAXPROCS %d: output differs from GOMAXPROCS 1\n got:\n%s\nwant:\n%s", n, got, want)
		}
	}
}

// TestParallelMatchesSequential: for every staging mode, everything a client
// can observe of a run — CC tables, result sources, staged files' rows,
// counters and the virtual clock — is the same at GOMAXPROCS 2 and 4, where
// segmentable batches split into goroutine segments, as at GOMAXPROCS 1. The
// empty table is the degenerate input: a zero-group columnar copy at the root
// and, under file staging, a zero-row staged file below it — sources with
// nothing to split, which must return empty CC tables.
func TestParallelMatchesSequential(t *testing.T) {
	before := SegmentRuns()
	for _, rows := range []int{40000, 0} {
		for _, mode := range []StagingMode{StageNone, StageFileOnly, StageMemoryOnly, StageFileAndMemory} {
			if rows == 0 {
				assertEmptyCounts(t, driveTree(t, Config{Staging: mode}, rows, false))
			}
			procsRuns(t, []int{2, 4}, func() string { return driveTree(t, Config{Staging: mode}, rows, true) })
		}
	}
	if SegmentRuns() == before {
		t.Error("no batch ran as segments: the comparison is vacuous")
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
// memory tier), but the scan must not depend on that: with nothing to split
// the batch runs one unsegmented pass and returns an empty CC table.
func TestEmptyMemoryStageRunsOneLane(t *testing.T) {
	ds := randDataset(50, 3)
	m, trace, _ := newTracedMW(t, ds, Config{Staging: StageNone})
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
	before := SegmentRuns()
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Source != "memory" || results[0].CC.Rows() != 0 || results[0].CC.Entries() != 0 {
		t.Fatalf("results = %+v, want one empty CC table from memory", results)
	}
	batches := BatchRecords(trace)
	if bs := batches[len(batches)-1]; bs.Source != "memory" || SegmentRuns() != before {
		t.Errorf("empty memory stage did not run one pass: %+v", bs)
	}
}

// TestParallelDeterministicAcrossRuns: under file and memory staging the
// complete run — including every counter and the virtual clock — is
// bit-for-bit reproducible across repeated runs and across GOMAXPROCS
// settings, i.e. goroutine interleaving never leaks into the simulation.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Staging: StageFileAndMemory}
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

// parallelStageConfigs are the configurations exercising the pipeline's
// other stages: SQL-fallback arms (a budget below every estimate sends all
// requests to the fallback) and the three §4.3.3 auxiliary access paths.
func parallelStageConfigs() map[string]Config {
	return map[string]Config{
		"fallback-heavy": {Staging: StageNone, Memory: 480}, // 12 entries: admits nothing
		"keyset":         {Staging: StageNone, Access: AccessKeyset, AuxThreshold: 0.6},
		"tid-join":       {Staging: StageNone, Access: AccessTIDJoin, AuxThreshold: 0.6},
		"copy-table":     {Staging: StageNone, Access: AccessCopyTable, AuxThreshold: 0.6},
	}
}

// TestParallelFallbackAuxMatchSequential: for the fallback-heavy and
// auxiliary-structure workloads, every client-observable output — meter
// included — at GOMAXPROCS 2 and 4 is the GOMAXPROCS 1 run's: segmented
// scans of a row set or a copy-table change where work executes, never its
// outcome.
func TestParallelFallbackAuxMatchSequential(t *testing.T) {
	for name, cfg := range parallelStageConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			procsRuns(t, []int{2, 4}, func() string { return driveTree(t, cfg, 40000, true) })
		})
	}
}

// TestParallelFallbackAuxDeterministicAcrossRuns: the fallback-heavy and
// aux-path runs — counters and virtual clock included — are bit-for-bit
// reproducible across reruns and GOMAXPROCS settings.
func TestParallelFallbackAuxDeterministicAcrossRuns(t *testing.T) {
	for name, cfg := range parallelStageConfigs() {
		cfg := cfg
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

// TestPlanParallelPartitionsAuxPaths: keyset and TID-join batches plan their
// pass over the captured row set, which a segmented pass splits by row group
// like every other source: at GOMAXPROCS 4 the child batch runs as segments
// and still counts exactly the rows its path selects.
func TestPlanParallelPartitionsAuxPaths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, access := range []ServerAccess{AccessKeyset, AccessTIDJoin} {
		ds := randDataset(40000, 3) // ten row groups
		m, _ := newMW(t, ds, Config{Staging: StageNone, Access: access, AuxThreshold: 0.6})
		if err := m.Enqueue(rootRequest(ds)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		// One child covering ~1/3 of the rows: below AuxThreshold, so the
		// batch qualifies for an auxiliary structure.
		child := &Request{
			NodeID: 1, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
			Attrs: []int{1, 2, 3},
			Rows:  countWhere(ds, func(r data.Row) bool { return r[0] == 1 }),
			EstCC: 40,
		}
		if err := m.Enqueue(child); err != nil {
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
		src, err := r.planScan(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rows, ok := src.(*engine.RowSet); !ok || int64(rows.Size()) != child.Rows {
			t.Fatalf("access=%v: the plan's source is %T, want the batch's %d captured rows", access, src, child.Rows)
		}
		before := SegmentRuns()
		if err := r.runScan(context.Background(), src); err != nil {
			t.Fatal(err)
		}
		r.closeScan()
		results, err := m.finishBatch(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if SegmentRuns() == before {
			t.Errorf("access=%v: the row-set pass did not run as segments", access)
		}
		want := cc.FromDataset(ds, []int{1, 2, 3, ds.Schema.ClassIndex()}, child.Path.Eval)
		if len(results) != 1 || !results[0].CC.Equal(want) {
			t.Errorf("access=%v: segmented row-set pass counted %v, want %s", access, results, want)
		}
		m.CloseNode(1)
	}
}

// TestLaneZeroStreamsFileTee: a scan writes the row groups its file tees fill
// straight into the staging file instead of holding them until the scan ends
// — held, a root scan under file staging kept a copy of the whole table in
// memory, outside the budget. Only the open group's rows wait for settle.
func TestLaneZeroStreamsFileTee(t *testing.T) {
	ds := randDataset(9000, 5) // three row groups
	m, _ := newMW(t, ds, Config{Staging: StageFileOnly})
	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	r, err := m.beginBatch(m.schedule())
	if err != nil {
		t.Fatal(err)
	}
	src, err := r.planScan(context.Background())
	if err != nil || len(r.plan.fileTees) != 1 {
		t.Fatalf("%d file tees, error %v; want 1", len(r.plan.fileTees), err)
	}
	sh := r.newShard()
	if err := r.scanSource(context.Background(), src, sh); err != nil {
		t.Fatal(err)
	}
	full := int64(ds.N() / engine.BlockRows * engine.BlockRows)
	if got := r.plan.fileTees[0].writer.sf.rows; got != full {
		t.Errorf("%d rows streamed before settle, want every full group's: %d of %d", got, full, ds.N())
	}
	r.settle(sh)
	if _, err := m.finishBatch(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stagedFileRows(t, m, m.sources[0][0].file), ds.Rows) {
		t.Error("the staged file does not hold the table's rows in order")
	}
	if got := m.sources[0][0].file.bytes; got != ds.Bytes() {
		t.Errorf("the file accounts for %d bytes, table %d", got, ds.Bytes())
	}
}
