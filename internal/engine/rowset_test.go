package engine

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestSeededScanMatchesRowOracle is the property the keyset and TID-join
// batches rest on, against an oracle that shares nothing with the kernel: for
// random path sets, random captured row sets — any density, groups and blocks
// holding nothing — and random partitions into row-group ranges, what a seeded
// ScanGroups selects (Sel) and buckets (Buckets[k]), concatenated in partition
// order, is predicate.Filter.Eval and predicate.Conj.Eval over the dataset's
// rows restricted to the captured ones, in heap order — under the paths' filter
// and under match-all, which selects by the paths too. What the scan charges
// is row-at-a-time: a fetch (and for a TID table a probe) and a
// stored-procedure evaluation per captured row of every group it reads, a
// transmission per selected row — per evaluated row under match-all, where
// the zone maps skip nothing — no page and no block price. A consumer without
// paths may not scan a row set.
func TestSeededScanMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	srv, ds := routingServer(t, rng)
	cs := srv.table.colstore
	ng, costs := cs.NumGroups(), srv.meter.Costs()
	for round := 0; round < 120; round++ {
		rs := &RowSet{tableGroups: srv.table.groups(nil, costs), costs: costs, held: make([][]int32, ng), probe: round%2 == 1}
		captured := make([]bool, ds.N())
		perMille := []int{1, 50, 500, 1000}[rng.Intn(4)]
		for gi := range rs.held {
			if rng.Intn(4) == 0 {
				continue // a group the set holds nothing of
			}
			empty := rng.Intn(6) // ... and, when < 4, a block of this group
			for i := 0; i < cs.Group(gi).NumRows(); i++ {
				if i/BlockRows != empty && rng.Intn(1000) < perMille {
					rs.held[gi] = append(rs.held[gi], int32(i))
					captured[gi*storage.RowGroupSize+i] = true
				}
			}
		}
		paths := randomPaths(rng, ds.Schema.NumCols())
		trie := predicate.NewTrie(paths)
		for _, pushed := range []predicate.Filter{trie.Filter(), predicate.MatchAll()} {
			var wantSel []data.Row
			wantBuckets := make([][]data.Row, len(paths))
			for i, row := range ds.Rows {
				if !captured[i] {
					continue
				}
				if trie.Any(row) {
					wantSel = append(wantSel, row)
				}
				for k, cj := range paths {
					if cj.Eval(row) {
						wantBuckets[k] = append(wantBuckets[k], row)
					}
				}
			}
			var wantFetches int64
			var gf groupFilter
			for gi := range rs.held {
				if gf.Compile(cs.Group(gi), pushed); !gf.None() {
					wantFetches += int64(len(rs.held[gi]))
				}
			}

			bounds := []int{0, ng}
			for n := rng.Intn(5); n > 0; n-- {
				bounds = append(bounds, rng.Intn(ng+1))
			}
			sort.Ints(bounds)
			var gotSel []data.Row
			gotBuckets := make([][]data.Row, len(paths))
			lane := sim.NewMeter(costs)
			cons := &ScanConsumer{Filter: pushed, Paths: trie, Meter: lane, Fn: func(blk *ColBlock) bool {
				for _, i := range blk.Sel {
					gotSel = append(gotSel, groupRow(blk.Group, i))
				}
				for k, b := range blk.Buckets {
					for _, i := range b {
						gotBuckets[k] = append(gotBuckets[k], groupRow(blk.Group, i))
					}
				}
				return true
			}}
			for p := 0; p+1 < len(bounds); p++ {
				if err := ScanGroups(context.Background(), rs, []*ScanConsumer{cons}, bounds[p], bounds[p+1], lane); err != nil {
					t.Fatal(err)
				}
			}
			if !sameRows(gotSel, wantSel) {
				t.Fatalf("round %d, filter %v, ranges %v: selected %d rows, the oracle %d (or content differs)",
					round, pushed, bounds, len(gotSel), len(wantSel))
			}
			for k := range paths {
				if !sameRows(gotBuckets[k], wantBuckets[k]) {
					t.Fatalf("round %d, filter %v, ranges %v: path %v bucketed %d rows, the oracle %d (or content differs)",
						round, pushed, bounds, paths[k], len(gotBuckets[k]), len(wantBuckets[k]))
				}
			}
			wantProbes, wantSent := int64(0), int64(len(wantSel))
			if rs.probe {
				wantProbes = wantFetches
			}
			if pushed.All() {
				wantSent = wantFetches
			}
			wantNS := int64(len(bounds)-1)*costs.CursorOpen + wantProbes*costs.IndexProbe +
				wantFetches*(costs.TIDFetch+costs.ServerRowCPU) + wantSent*costs.RowTransmit
			if lane.Count(sim.CtrTIDFetches) != wantFetches || lane.Count(sim.CtrIndexProbes) != wantProbes ||
				lane.Count(sim.CtrServerRows) != wantFetches || lane.Count(sim.CtrRowsTransmitted) != wantSent ||
				lane.Count(sim.CtrServerPages) != 0 || int64(lane.Now()) != wantNS {
				t.Fatalf("round %d, filter %v: charged %v; want %d fetches, %d probes, %d rows sent, %d ns",
					round, pushed, lane, wantFetches, wantProbes, wantSent, wantNS)
			}
		}
	}
}
