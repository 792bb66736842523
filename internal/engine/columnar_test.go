package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// clusteredColumnarServer builds a table whose attr 0 is clustered by row
// position (the regime zone maps exploit): value i*regions/n, so each value
// occupies a contiguous run of row groups.
func clusteredColumnarServer(t *testing.T, n, regions int) (*Server, *data.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	s := data.NewSchema(3, regions, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		ds.Append(data.Row{
			data.Value(i * regions / n), data.Value(rng.Intn(regions)),
			data.Value(rng.Intn(regions)), data.Value(rng.Intn(2)),
		})
	}
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ds
}

// drainColumnar materializes every selected row of a columnar range scan.
func drainColumnar(srv *Server, f predicate.Filter, lo, hi int) []data.Row {
	var out []data.Row
	srv.ScanColumnarRange(f, nil, lo, hi, nil, func(blk *ColBlock) bool {
		for _, i := range blk.Sel {
			out = append(out, groupRow(blk.Group, i))
		}
		return true
	})
	return out
}

// groupRow decodes row i of g.
func groupRow(g *storage.ColGroup, i int32) data.Row {
	row := make(data.Row, g.NumCols())
	for c := range row {
		row[c] = g.Dict(c)[g.Codes(c)[i]]
	}
	return row
}

func sameRows(a, b []data.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestColumnarScanMatchesRowScan: the columnar scan yields exactly the rows
// the row cursor yields, in the same order, for a spread of filters.
func TestColumnarScanMatchesRowScan(t *testing.T) {
	srv, _ := clusteredColumnarServer(t, 11000, 4)
	ng := srv.NumColGroups()
	filters := []predicate.Filter{
		predicate.MatchAll(),
		predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 2}}),
		predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 9}}), // matches nothing
		predicate.Or(
			predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}, {Attr: 1, Op: predicate.Ne, Val: 3}},
			predicate.Conj{{Attr: 2, Op: predicate.Eq, Val: 0}},
		),
	}
	for fi, f := range filters {
		want := drain(srv.OpenScan(f))
		got := drainColumnar(srv, f, 0, ng)
		if !sameRows(got, want) {
			t.Fatalf("filter %d: columnar scan differs from row scan (%d vs %d rows)", fi, len(got), len(want))
		}
	}
}

// TestColumnarPartitionsCoverGroupsExactlyOnce: concatenating disjoint group
// ranges reproduces the full columnar scan for any part count.
func TestColumnarPartitionsCoverGroupsExactlyOnce(t *testing.T) {
	srv, _ := clusteredColumnarServer(t, 9000, 4)
	ng := srv.NumColGroups()
	f := predicate.Or(predicate.Conj{{Attr: 1, Op: predicate.Ne, Val: 1}})
	want := drainColumnar(srv, f, 0, ng)
	for _, nparts := range []int{1, 2, 3, ng, ng + 2} {
		var got []data.Row
		for p := 0; p < nparts; p++ {
			lo, hi := p*ng/nparts, (p+1)*ng/nparts
			got = append(got, drainColumnar(srv, f, lo, hi)...)
		}
		if !sameRows(got, want) {
			t.Fatalf("nparts=%d: partitioned columnar scan differs (%d vs %d rows)", nparts, len(got), len(want))
		}
	}
}

// TestColumnarZoneMapSkipCharges: a filter selecting one clustered region
// must skip most groups, and skipped groups charge no page I/O at all.
func TestColumnarZoneMapSkipCharges(t *testing.T) {
	srv, _ := clusteredColumnarServer(t, 12*storage.RowGroupSize, 6)
	m := srv.Meter()
	f := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}})

	snapAll := m.Snapshot()
	drainColumnar(srv, predicate.MatchAll(), 0, srv.NumColGroups())
	allPages := m.CountSince(snapAll, sim.CtrServerPages)

	snapSel := m.Snapshot()
	drainColumnar(srv, f, 0, srv.NumColGroups())
	selPages := m.CountSince(snapSel, sim.CtrServerPages)
	scanned := m.CountSince(snapSel, sim.CtrColGroupsScanned)
	skipped := m.CountSince(snapSel, sim.CtrColGroupsSkipped)

	if scanned+skipped != int64(srv.NumColGroups()) {
		t.Fatalf("scanned %d + skipped %d != %d groups", scanned, skipped, srv.NumColGroups())
	}
	// Region 0 is 1/6 of the table: at most 3 of 12 groups touch it
	// (boundary groups straddle regions).
	if skipped < int64(srv.NumColGroups())/2 {
		t.Fatalf("skipped only %d of %d groups", skipped, srv.NumColGroups())
	}
	if selPages*2 > allPages {
		t.Fatalf("selective scan read %d pages, full scan %d: zone maps saved <2x", selPages, allPages)
	}
}

// TestColumnarPagesCheaperThanHeap: dictionary packing makes a full columnar
// read of all columns cost fewer modeled pages than the row-major heap scan.
func TestColumnarPagesCheaperThanHeap(t *testing.T) {
	srv, _ := clusteredColumnarServer(t, 6*storage.RowGroupSize, 4)
	m := srv.Meter()
	snap := m.Snapshot()
	drainColumnar(srv, predicate.MatchAll(), 0, srv.NumColGroups())
	colPages := m.CountSince(snap, sim.CtrServerPages)
	heapPages := int64(srv.NumPages())
	if colPages*2 > heapPages {
		t.Fatalf("columnar full scan = %d pages, heap = %d: want >=2x packing win", colPages, heapPages)
	}
}

// refConj is the per-conjunction kernel the trie replaced, kept here as the
// oracle: one conjunction compiled against one group by the always / never /
// test rules and refined row by row.
type refConj struct {
	conds []predicate.Cond // the conditions that need a per-row test
	none  bool
}

func compileRefConj(g *storage.ColGroup, cj predicate.Conj) refConj {
	var rc refConj
	for _, c := range cj {
		_, ok := g.FindCode(c.Attr, c.Val)
		only := len(g.Dict(c.Attr)) == 1
		switch {
		case c.Op == predicate.Eq && !ok, c.Op == predicate.Ne && ok && only:
			return refConj{none: true}
		case ok && !only:
			rc.conds = append(rc.conds, c)
		}
	}
	return rc
}

func (rc refConj) refine(g *storage.ColGroup, sel []int32) []int32 {
	var out []int32
	for _, i := range sel {
		ok := !rc.none
		for _, c := range rc.conds {
			code, _ := g.FindCode(c.Attr, c.Val)
			ok = ok && (g.Codes(c.Attr)[i] == code) == (c.Op == predicate.Eq)
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// randomPaths draws a path set the way a batch produces one — and worse:
// children extending a shared prefix, paths that are prefixes of one another,
// exact duplicates, the empty path, Ne conditions, and values (7, 8) that no
// row holds, so group dictionaries miss them.
func randomPaths(rng *rand.Rand, ncols int) []predicate.Conj {
	cond := func() predicate.Cond {
		c := predicate.Cond{Attr: rng.Intn(ncols), Val: data.Value(rng.Intn(9))}
		if rng.Intn(3) == 0 {
			c.Op = predicate.Ne
		}
		return c
	}
	paths := []predicate.Conj{{cond()}}
	for n := 1 + rng.Intn(12); len(paths) < n; {
		base := paths[rng.Intn(len(paths))]
		switch rng.Intn(6) {
		case 0:
			paths = append(paths, base) // duplicate
		case 1:
			paths = append(paths, base[:rng.Intn(len(base)+1)]) // prefix, maybe empty
		case 2:
			paths = append(paths, predicate.Conj{cond()}) // unrelated
		default:
			paths = append(paths, base.And(cond())) // child
		}
	}
	return paths
}

// routingServer loads three and a bit row groups whose attribute 0 is clustered
// in runs of one and a half groups — so a group holds one value of it or two,
// and never all three — with the other columns uniform.
func routingServer(t *testing.T, rng *rand.Rand) (*Server, *data.Dataset) {
	t.Helper()
	ds := data.NewDataset(data.NewSchema(3, 6, 2))
	for i := 0; i < 3*storage.RowGroupSize+500; i++ {
		ds.Append(data.Row{
			data.Value(i / (storage.RowGroupSize * 3 / 2)), data.Value(rng.Intn(6)),
			data.Value(rng.Intn(6)), data.Value(rng.Intn(2)),
		})
	}
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ds
}

// sameSel reports whether two selection vectors hold the same rows in the
// same order.
func sameSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGroupTrieRouting: the scan's one trie walk per row must produce, element
// for element, what the two passes it replaced did — Sel as selectBlock over
// the paths' disjunction, also when the consumer pushes match-all down, and
// every Buckets[k] as the per-conjunction kernel's refinement of that Sel —
// and skip exactly the groups the disjunction's zone-map verdict rules out
// (none under match-all, where every evaluated row is transmitted); the same
// trie as a filter must agree with predicate.Filter.Eval row by row, with the
// zone-map verdict of the kernel it replaced.
func TestGroupTrieRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	srv, ds := routingServer(t, rng)
	cs := srv.table.colstore
	var gf groupFilter // reused across groups and path sets, as the scan does
	for round := 0; round < 150; round++ {
		paths := randomPaths(rng, ds.Schema.NumCols())
		trie := predicate.NewTrie(paths)
		filter := predicate.Or(paths...) // over a trie of its own: the reference

		// The fused walk against the two passes, over every block of the table.
		for _, ref := range []predicate.Filter{filter, predicate.MatchAll()} {
			pushed := predicate.MatchAll()
			if !ref.All() {
				pushed = trie.Filter()
			}
			scanned := make([]bool, cs.NumGroups())
			lane := sim.NewMeter(srv.meter.Costs())
			cons := &ScanConsumer{Filter: pushed, Paths: trie, Meter: lane}
			var selected int64
			cons.Fn = func(blk *ColBlock) bool {
				g := blk.Group
				scanned[blk.GroupIndex] = true
				gf.Compile(g, filter)
				wantSel := gf.selectBlock(blk.Base, blk.N, nil)
				selected += int64(len(wantSel))
				if !sameSel(blk.Sel, wantSel) {
					t.Fatalf("round %d group %d block %d, filter %v: Sel = %v, want %v", round, blk.GroupIndex, blk.Base, ref, blk.Sel, wantSel)
				}
				if len(blk.Buckets) != len(paths) {
					t.Fatalf("round %d: %d buckets for %d paths", round, len(blk.Buckets), len(paths))
				}
				for k, cj := range paths {
					if want := compileRefConj(g, cj).refine(g, wantSel); !sameSel(blk.Buckets[k], want) {
						t.Fatalf("round %d group %d block %d, filter %v: path %v bucket = %v, want %v", round, blk.GroupIndex, blk.Base, ref, cj, blk.Buckets[k], want)
					}
				}
				return true
			}
			ScanGroups(context.Background(), srv.ColGroups(nil), []*ScanConsumer{cons}, 0, cs.NumGroups(), lane)
			for gi, got := range scanned {
				if gf.Compile(cs.Group(gi), ref); got == gf.None() {
					t.Fatalf("round %d group %d, filter %v: scanned = %v, zone-map verdict none = %v", round, gi, ref, got, gf.None())
				}
			}
			sent := selected
			if ref.All() {
				sent = lane.Count(sim.CtrServerRows)
			}
			if got := lane.Count(sim.CtrRowsTransmitted); got != sent {
				t.Fatalf("round %d, filter %v: %d rows transmitted, want %d", round, ref, got, sent)
			}
		}

		for gi := 0; gi < cs.NumGroups(); gi++ {
			g := cs.Group(gi)
			rows := ds.Rows[gi*storage.RowGroupSize:]
			all := appendRows(nil, 0, g.NumRows())
			none := true
			for _, cj := range paths {
				rc := compileRefConj(g, cj)
				for _, ri := range rc.refine(g, all) {
					if !cj.Eval(rows[ri]) {
						t.Fatalf("round %d group %d: reference kernel keeps row %d for %v, which it fails", round, gi, ri, cj)
					}
				}
				none = none && rc.none
			}

			gf.Compile(g, filter)
			if !filter.All() {
				if gf.None() != none {
					t.Fatalf("round %d group %d: None = %v, per-conjunction verdict %v", round, gi, gf.None(), none)
				}
			}
			block := gf.selectBlock(0, g.NumRows(), nil)
			for i := 0; i < g.NumRows(); i++ {
				naive := false
				for _, cj := range paths {
					naive = naive || cj.Eval(rows[i])
				}
				if filter.Eval(rows[i]) != naive {
					t.Fatalf("round %d: Filter.Eval(%v) = %v, disjunct by disjunct %v", round, rows[i], !naive, naive)
				}
				inBlock := len(block) > 0 && block[0] == int32(i)
				if inBlock {
					block = block[1:]
				}
				if inBlock != naive {
					t.Fatalf("round %d group %d row %d: selectBlock %v, Filter.Eval %v", round, gi, i, inBlock, naive)
				}
			}
		}
	}
}

// TestCodeSpaceChainMatchesWalk: where a filter compiles to one conjunction,
// selectBlock filters by selection-vector passes (chainSel), and it must keep
// exactly the rows the per-row trie walk (groupTrie.matches) keeps, in
// ascending order — over random chains of Eq/Ne conditions, test-free nodes on
// single-value dictionaries, disjunctions a group's dictionaries cut down to one
// path and a partial last block. A compiled trie with two paths never takes
// the passes.
func TestCodeSpaceChainMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	srv, ds := routingServer(t, rng)
	cs := srv.table.colstore
	chain := func() predicate.Conj {
		cj := make(predicate.Conj, 1+rng.Intn(4))
		for i := range cj {
			cj[i] = predicate.Cond{Attr: rng.Intn(ds.Schema.NumCols()), Val: data.Value(rng.Intn(8))}
			if rng.Intn(3) == 0 {
				cj[i].Op = predicate.Ne
			}
		}
		return cj
	}
	walk := func(gf *groupFilter, rows []int32) (out []int32) {
		for _, i := range rows {
			if gf.trie.matches(i) {
				out = append(out, i)
			}
		}
		return out
	}
	var gf groupFilter
	var chains, testFree, cut, multi int
	for round := 0; round < 400; round++ {
		conjs := []predicate.Conj{chain()}
		if rng.Intn(3) == 0 {
			conjs = append(conjs, chain())
		}
		f := predicate.Or(conjs...)
		for gi := 0; gi < cs.NumGroups(); gi++ {
			g := cs.Group(gi)
			if gf.Compile(g, f); gf.all || gf.none {
				continue
			}
			leaves, terminals := 0, 0
			for j, n := range gf.trie.nodes {
				if int(n.end) == j+1 {
					leaves++
				}
				if n.hi > n.lo {
					terminals++
				}
			}
			switch {
			case leaves > 1 || terminals > 1:
				if gf.chain {
					t.Fatalf("round %d group %d, filter %v: %d paths compiled, yet the chain pass is taken", round, gi, f, max(leaves, terminals))
				}
				multi++
			case gf.chain:
				chains++
				if len(f.Conjs()) > 1 {
					cut++
				}
				for _, n := range gf.trie.nodes[1:] {
					if n.codes == nil {
						testFree++
						break
					}
				}
			}
			for base := 0; base < g.NumRows(); base += BlockRows {
				n := min(BlockRows, g.NumRows()-base)
				block := appendRows(nil, base, n)
				want := walk(&gf, block)
				if got := gf.selectBlock(base, n, []int32{-1}); got[0] != -1 || !sameSel(got[1:], want) {
					t.Fatalf("round %d group %d block %d, filter %v: selectBlock = %v, walk %v", round, gi, base, f, got, want)
				}
			}
		}
	}
	if chains == 0 || testFree == 0 || cut == 0 || multi == 0 {
		t.Errorf("coverage: %d chains, %d with a test-free node, %d cut from a disjunction, %d multi-path tries; want some of each", chains, testFree, cut, multi)
	}
}

// TestSharedScanConsumersMatchSolo: consumers with different tries attached to
// one ScanGroups pass each see, block for block, exactly the Sel and
// Buckets their own solo scan hands them, and pay the same on their lanes —
// the solo lane additionally its cursor and its pages, which the cohort's io
// meter pays once. One consumer filters by its paths, one takes every row and
// only buckets, and one is confined to attribute 0 = 0, so its zone maps skip
// groups the others read.
func TestSharedScanConsumersMatchSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	srv, ds := routingServer(t, rng)
	ng := srv.NumColGroups()
	type block struct {
		group, base, n int
		sel            []int32
		buckets        [][]int32
	}
	consumer := func(trie *predicate.Trie, matchAll bool, lane *sim.Meter, log *[]block) *ScanConsumer {
		f := trie.Filter()
		if matchAll {
			f = predicate.MatchAll()
		}
		return &ScanConsumer{Filter: f, Paths: trie, Meter: lane, Fn: func(blk *ColBlock) bool {
			b := block{group: blk.GroupIndex, base: blk.Base, n: blk.N, sel: append([]int32(nil), blk.Sel...)}
			for _, rows := range blk.Buckets {
				b.buckets = append(b.buckets, append([]int32(nil), rows...))
			}
			*log = append(*log, b)
			return true
		}}
	}
	for round := 0; round < 25; round++ {
		tries := make([]*predicate.Trie, 3)
		for i := range tries {
			paths := randomPaths(rng, ds.Schema.NumCols())
			if i == 2 {
				for k, cj := range paths {
					paths[k] = append(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 0}}, cj...)
				}
			}
			tries[i] = predicate.NewTrie(paths)
		}
		io := sim.NewDefaultMeter()
		lanes, logs, cons := make([]*sim.Meter, 3), make([][]block, 3), make([]*ScanConsumer, 3)
		for i, trie := range tries {
			lanes[i] = sim.NewDefaultMeter()
			cons[i] = consumer(trie, i == 1, lanes[i], &logs[i])
		}
		ScanGroups(context.Background(), srv.ColGroups(nil), cons, 0, ng, io)
		if skipped := lanes[2].Count(sim.CtrColGroupsSkipped); skipped < 2 {
			t.Fatalf("round %d: the confined consumer skipped %d groups, want the two without attribute 0 = 0", round, skipped)
		}

		costs := io.Costs()
		var soloPages int64
		for i, trie := range tries {
			lane := sim.NewDefaultMeter()
			var log []block
			ScanGroups(context.Background(), srv.ColGroups(nil), []*ScanConsumer{consumer(trie, i == 1, lane, &log)}, 0, ng, lane)
			if !reflect.DeepEqual(log, logs[i]) {
				t.Fatalf("round %d consumer %d: the shared scan handed it %d blocks that differ from its solo scan's %d", round, i, len(logs[i]), len(log))
			}
			pages := lane.Count(sim.CtrServerPages)
			soloPages = max(soloPages, pages)
			for _, c := range sim.Counters() {
				want := lane.Count(c)
				if c == sim.CtrServerScans || c == sim.CtrServerPages {
					want = 0 // the cohort's io meter pays these
				}
				if got := lanes[i].Count(c); got != want {
					t.Fatalf("round %d consumer %d: shared lane counted %s = %d, solo %d", round, i, c, got, want)
				}
			}
			if got, want := lane.Now()-lanes[i].Now(), time.Duration(costs.CursorOpen+pages*costs.ServerPageIO); got != want {
				t.Fatalf("round %d consumer %d: solo lane ran %v longer than the shared one, want its cursor and pages = %v", round, i, got, want)
			}
		}
		// The match-all consumer reads every group, so the cohort's pages are its.
		if io.Count(sim.CtrServerScans) != 1 || io.Count(sim.CtrServerPages) != soloPages {
			t.Fatalf("round %d: cohort charged %d cursors and %d pages, want 1 and %d", round, io.Count(sim.CtrServerScans), io.Count(sim.CtrServerPages), soloPages)
		}
	}
}
