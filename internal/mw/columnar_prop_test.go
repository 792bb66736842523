package mw

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/predicate"
)

// Property-test harness for the columnar scan path, mirroring
// partition_prop_test.go: the columnar copy must be indistinguishable from
// the heap it copies by results — per partition layout the row multiset of the
// sequential heap cursor, the CC tables and staged rows of a row-at-a-time
// count — under every worker count and split policy.
// Sizes here deliberately exceed storage.RowGroupSize (the partition unit),
// which the generic prop sizes never do.

// columnarPropTrials is propTrials with multi-group table sizes: 17000 rows
// span five row groups, so group-range partitioning, zone-map skipping and
// histogram-guided group bounds are all exercised with nparts both below and
// above the group count.
func columnarPropTrials(t *testing.T, fn func(t *testing.T, rng *rand.Rand, ds *data.Dataset, f predicate.Filter, nparts int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(977))
	for _, n := range []int{7, 60, 2300, 9500, 17000} {
		ds := propDataset(rng, n)
		for trial := 0; trial < 5; trial++ {
			f := propFilter(rng)
			if trial == 0 {
				// Guaranteed zero-match: attr 0 never holds card+1.
				f = predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 5}})
			}
			nparts := 1 + rng.Intn(9)
			t.Run(fmt.Sprintf("n=%d/trial=%d/parts=%d", n, trial, nparts), func(t *testing.T) {
				fn(t, rng, ds, f, nparts)
			})
		}
	}
}

// TestColumnarPartitionProperty: for seeded random tables, filters and
// partition counts, draining every columnar group range must yield the same
// row multiset as the sequential heap cursor — under both histogram-guided
// and equal-width group bounds, including nparts past the group count and
// filters the zone maps prove empty everywhere.
func TestColumnarPartitionProperty(t *testing.T) {
	columnarPropTrials(t, func(t *testing.T, rng *rand.Rand, ds *data.Dataset, f predicate.Filter, nparts int) {
		srv := propServer(t, ds)
		ng := srv.NumColGroups()
		want := drainCursor(srv.OpenScan(f))
		for _, hints := range []bool{true, false} {
			bounds := engine.GroupBounds(srv.ColGroups(nil), f, nparts, srv.Meter().Costs(), rng.Int63n(20_000))
			if !hints {
				bounds = nil // what the middleware plans with hints disabled (splitBounds)
			}
			checkBounds(t, bounds, nparts, ng)
			var got []string
			for part := 0; part < nparts; part++ {
				lo, hi := engine.RangeOf(part, nparts, ng, bounds)
				srv.ScanColumnarRange(f, nil, lo, hi, nil, func(blk *engine.ColBlock) bool {
					for _, i := range blk.Sel {
						got = append(got, fmt.Sprint(groupRow(blk.Group, i)))
					}
					return true
				})
			}
			checkMultiset(t, fmt.Sprintf("columnar scan (hints=%v)", hints), got, want)
		}
	})
}

// TestColumnarMatchesRowPath: the complete three-level protocol — CC tables,
// result sources, and the rows every staging file holds, in file order — is
// what counting and filtering the dataset row at a time produces (driveTree
// holds every table against cc.Table.AddRow and every file against
// predicate.Filter.Eval), and identical over the columnar copy at Workers ∈
// {1, 2, 4, 8}, for staging off and on. 13000 rows give four row groups, so the
// high worker counts exercise multi-lane scans and the shard merge. (The virtual
// clock legitimately differs with Workers, so the meter is excluded here and
// determinism is pinned below.) The empty table is the zero-group columnar copy:
// one lane, empty CC tables.
func TestColumnarMatchesRowPath(t *testing.T) {
	for _, rows := range []int{13000, 0} {
		for _, mode := range []StagingMode{StageNone, StageFileAndMemory} {
			want := driveTree(t, Config{Staging: mode, Workers: 1}, rows, false)
			if rows == 0 {
				assertEmptyCounts(t, want)
			}
			for _, w := range []int{2, 4, 8} {
				got := driveTree(t, Config{Staging: mode, Workers: w}, rows, false)
				if got != want {
					t.Errorf("rows=%d staging=%v workers=%d: output differs from the one-lane run's\n got:\n%s\nwant:\n%s",
						rows, mode, w, got, want)
				}
			}
		}
	}
}

// TestColumnarDeterministicAcrossRuns: a multi-lane columnar run — counters
// and virtual clock included — is bit-for-bit reproducible across repeated
// runs and GOMAXPROCS settings.
func TestColumnarDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Staging: StageFileAndMemory, Workers: 4}
	var prints []string
	for _, procs := range []int{1, runtime.NumCPU()} {
		old := runtime.GOMAXPROCS(procs)
		prints = append(prints, driveTree(t, cfg, 13000, true), driveTree(t, cfg, 13000, true))
		runtime.GOMAXPROCS(old)
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Fatalf("run %d differs from run 0:\n got:\n%s\nwant:\n%s", i, prints[i], prints[0])
		}
	}
}
