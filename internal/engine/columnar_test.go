package engine

import (
	"math/rand"
	"testing"

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
			out = append(out, blk.MaterializeRow(i, nil))
		}
		return true
	})
	return out
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
			lo, hi := RangeOf(p, nparts, ng, nil)
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

// TestColGroupBoundsShape: bounds are WeightedBounds-shaped, skew toward the
// matching region, and vanish when hints are disabled.
func TestColGroupBoundsShape(t *testing.T) {
	srv, _ := clusteredColumnarServer(t, 12*storage.RowGroupSize, 6)
	f := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 5}})
	const nparts = 4
	bounds := srv.ColGroupBounds(f, nil, nparts, 10_000)
	if len(bounds) != nparts+1 {
		t.Fatalf("bounds = %v, want %d entries", bounds, nparts+1)
	}
	ng := srv.NumColGroups()
	if bounds[0] != 0 || bounds[nparts] != ng {
		t.Fatalf("bounds = %v, want [0 .. %d]", bounds, ng)
	}
	for i := 0; i < nparts; i++ {
		if bounds[i] > bounds[i+1] {
			t.Fatalf("bounds %v not monotone", bounds)
		}
	}
	// Region 5 lives in the last couple of groups; with skipped groups
	// weighing nothing, the first partition must swallow well over its
	// equal-width share of groups.
	if bounds[1] <= ng/nparts {
		t.Fatalf("bounds = %v: first lane got %d groups, equal-width would give %d", bounds, bounds[1], ng/nparts)
	}
	srv.SetSplitHints(false)
	if b := srv.ColGroupBounds(f, nil, nparts, 10_000); b != nil {
		t.Fatalf("bounds with hints disabled = %v, want nil", b)
	}
}

// refConj is the per-conjunction kernel the trie replaced, kept here as the
// oracle: one conjunction compiled against one group by the always / never /
// test rules, refined row by row and estimated on its own.
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

func (rc refConj) estimate(g *storage.ColGroup) int64 {
	if rc.none {
		return 0
	}
	rows := int64(g.NumRows())
	est := rows
	for _, c := range rc.conds {
		code, _ := g.FindCode(c.Attr, c.Val)
		cnt := g.CodeCounts(c.Attr)[code]
		if c.Op == predicate.Ne {
			cnt = rows - cnt
		}
		est = est * cnt / rows
	}
	return est
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

// TestGroupTrieRouting: one trie walk per row must land every row in exactly
// the buckets the per-conjunction kernel would have, element for element, and
// the same trie as a filter must agree with predicate.Filter.Eval row by row,
// with the zone-map verdict and the estimate of the kernel it replaced.
// Attribute 0 is clustered in runs of one and a half row groups, so some
// groups hold a single value of it and the others two.
func TestGroupTrieRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
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
	cs := srv.table.colstore
	var gt GroupTrie // reused across groups and path sets, as the scan does
	var gf GroupFilter
	for round := 0; round < 150; round++ {
		paths := randomPaths(rng, ds.Schema.NumCols())
		trie := predicate.NewTrie(paths)
		filter := predicate.Or(paths...)
		for gi := 0; gi < cs.NumGroups(); gi++ {
			g := cs.Group(gi)
			rows := ds.Rows[gi*storage.RowGroupSize:]
			var sel []int32
			for i := 0; i < g.NumRows(); i++ {
				if rng.Intn(4) > 0 {
					sel = append(sel, int32(i))
				}
			}

			gt.Compile(g, trie)
			buckets := make([][]int32, len(paths))
			gt.Route(sel, buckets)
			none, est := true, int64(0)
			for k, cj := range paths {
				rc := compileRefConj(g, cj)
				want := rc.refine(g, sel)
				if len(buckets[k]) != len(want) {
					t.Fatalf("round %d group %d: path %v bucket has %d rows, want %d", round, gi, cj, len(buckets[k]), len(want))
				}
				for i, ri := range want {
					if buckets[k][i] != ri {
						t.Fatalf("round %d group %d: path %v bucket[%d] = %d, want %d", round, gi, cj, i, buckets[k][i], ri)
					}
					if !cj.Eval(rows[ri]) {
						t.Fatalf("round %d group %d: row %d routed to %v, which it fails", round, gi, ri, cj)
					}
				}
				none = none && rc.none
				est += rc.estimate(g)
			}

			gf.Compile(g, filter)
			if !filter.All() {
				if gf.None() != none {
					t.Fatalf("round %d group %d: None = %v, per-conjunction verdict %v", round, gi, gf.None(), none)
				}
				if got, want := gf.Estimate(), min(est, int64(g.NumRows())); got != want {
					t.Fatalf("round %d group %d: Estimate = %d, want %d", round, gi, got, want)
				}
			}
			refined, block := gf.Refine(sel, nil), gf.selectBlock(0, g.NumRows(), nil)
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
				inRefined := len(refined) > 0 && refined[0] == int32(i)
				if inRefined {
					refined = refined[1:]
				}
				inSel := len(sel) > 0 && sel[0] == int32(i)
				if inSel {
					sel = sel[1:]
				}
				if inBlock != naive || inRefined != (naive && inSel) {
					t.Fatalf("round %d group %d row %d: selectBlock %v, Refine %v, Filter.Eval %v (selected %v)", round, gi, i, inBlock, inRefined, naive, inSel)
				}
			}
		}
	}
}
