package mw

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Property-test harness for every partitioned source: for seeded random
// table sizes, filters and partition counts (including nparts greater than
// the row-group count and filters matching nothing), draining every partition
// must yield the table's matching rows, in order, as predicate.Filter.Eval
// picks them from the dataset. A split is equal-width by group count, as a
// pass's segments split (scanSource).

// propDataset builds a dataset whose first attribute is clustered (row r has
// attr0 = r*card/n, so equality filters on it select contiguous slabs, and
// zone maps skip whole groups) and whose remaining attributes are uniform.
func propDataset(rng *rand.Rand, n int) *data.Dataset {
	const card = 4
	s := data.NewSchema(3, card, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		r := make(data.Row, 4)
		r[0] = data.Value(i * card / n)
		r[1] = data.Value(rng.Intn(card))
		r[2] = data.Value(rng.Intn(card))
		r[3] = data.Value(rng.Intn(2))
		ds.Append(r)
	}
	return ds
}

// propFilter draws a random filter: match-all, a single conjunction, or a
// two-disjunct OR. Values range one past the attribute cardinality so some
// equality conditions (and with them entire filters) match zero rows.
func propFilter(rng *rand.Rand) predicate.Filter {
	const card = 4
	cond := func() predicate.Cond {
		op := predicate.Eq
		if rng.Intn(4) == 0 {
			op = predicate.Ne
		}
		return predicate.Cond{Attr: rng.Intn(3), Op: op, Val: data.Value(rng.Intn(card + 1))}
	}
	conj := func() predicate.Conj {
		cj := predicate.Conj{cond()}
		if rng.Intn(2) == 0 {
			cj = append(cj, cond())
		}
		return cj
	}
	switch rng.Intn(5) {
	case 0:
		return predicate.MatchAll()
	case 1, 2:
		return predicate.Or(conj())
	default:
		return predicate.Or(conj(), conj())
	}
}

// splitCounts returns the part counts a trial splits its source by: the
// subtest's nparts and two more drawn from the trial's stream, 1 to 16.
func splitCounts(rng *rand.Rand, nparts int) []int {
	return []int{nparts, 1 + int(rng.Int63n(20_000)%16), 1 + int(rng.Int63n(20_000)%16)}
}

// drainCursor collects a cursor's rows as strings (the cursor may reuse its
// row buffer, so rows are rendered immediately).
func drainCursor(cur engine.Cursor) []string {
	defer cur.Close()
	var out []string
	for {
		row, ok := cur.Next()
		if !ok {
			return out
		}
		out = append(out, fmt.Sprint(row))
	}
}

// checkMultiset asserts the concatenation of the per-partition draws equals
// the sequential reference as a multiset — every row covered exactly once.
// The partitioned cursors visit units in the same global order as the
// sequential one (partitions are contiguous and tile in order), so equality
// is checked on the concatenation first and only falls back to a sorted
// comparison for the error message.
func checkMultiset(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) == len(want) {
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	t.Fatalf("%s: partitions drained %d rows, sequential %d (or content differs)", label, len(got), len(want))
}

func propServer(t *testing.T, ds *data.Dataset) *engine.Server {
	t.Helper()
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// propTrials runs fn for a spread of seeded (size, filter, nparts)
// combinations: sizes from a handful of rows to most of a row group, nparts
// from 1 to 16 — deliberately past the group count — plus a dedicated zero-match
// filter trial per size. (columnarPropTrials has the multi-group sizes.)
func propTrials(t *testing.T, fn func(t *testing.T, rng *rand.Rand, ds *data.Dataset, f predicate.Filter, nparts int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(443))
	for _, n := range []int{7, 60, 350, 1100, 2300} {
		ds := propDataset(rng, n)
		for trial := 0; trial < 6; trial++ {
			f := propFilter(rng)
			if trial == 0 {
				// Guaranteed zero-match: attr 0 never holds card+1.
				f = predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 5}})
			}
			nparts := 1 + rng.Intn(16)
			t.Run(fmt.Sprintf("n=%d/trial=%d/parts=%d", n, trial, nparts), func(t *testing.T) {
				fn(t, rng, ds, f, nparts)
			})
		}
	}
}

// TestPartitionPropertyServerScan: draining every row-group range of the
// server's columnar copy with the filter pushed down, concatenated, yields the
// table's matching rows in table order — under group-weighted bounds and
// equal-width ones.
func TestPartitionPropertyServerScan(t *testing.T) {
	propTrials(t, func(t *testing.T, rng *rand.Rand, ds *data.Dataset, f predicate.Filter, nparts int) {
		srv := propServer(t, ds)
		rowSourceProperty(t, rng, srv, srv.ColGroups(nil), ds, f, nparts, "server scan")
	})
}

// rowSetProperty is the partition property of a keyset or TID table: the
// qualifying scan of f captures exactly the table's rows matching f, and
// re-scanning every partition of the captured set with a second filter pushed
// down, concatenated in partition order, yields the table's rows matching both,
// in table order — over tables within one row group and spanning up to five.
func rowSetProperty(t *testing.T, capture func(*engine.Server, predicate.Filter) (*engine.RowSet, error)) {
	trial := func(t *testing.T, rng *rand.Rand, ds *data.Dataset, f predicate.Filter, nparts int) {
		srv := propServer(t, ds)
		rows, err := capture(srv, f)
		if err != nil {
			t.Fatal(err)
		}
		// Re-scan under a residual filter half the time, the capturing one
		// otherwise.
		rescan := f
		if rng.Intn(2) == 0 {
			rescan = propFilter(rng)
		}
		held := data.NewDataset(ds.Schema)
		for _, r := range ds.Rows {
			if f.Eval(r) {
				held.Append(r)
			}
		}
		if rows.Size() != held.N() {
			t.Fatalf("captured %d rows, %d match %v", rows.Size(), held.N(), f)
		}
		rowSourceProperty(t, rng, srv, rows, held, rescan, nparts, "row set re-scan")
	}
	propTrials(t, trial)
	t.Run("multigroup", func(t *testing.T) { columnarPropTrials(t, trial) })
}

// rowSourceProperty scans every one of k equal-width row-group ranges of a
// server source with f pushed down and its trie attached as the paths, as the
// middleware scans, for each k of splitCounts, and requires the concatenation
// to be the rows of ds that f selects, in order.
func rowSourceProperty(t *testing.T, rng *rand.Rand, srv *engine.Server, src engine.GroupSource, ds *data.Dataset, f predicate.Filter, nparts int, label string) {
	paths := f.Trie()
	if f.All() {
		paths = predicate.NewTrie([]predicate.Conj{nil}) // the root's empty path
	}
	var want []string
	for _, r := range ds.Rows {
		if f.Eval(r) {
			want = append(want, fmt.Sprint(r))
		}
	}
	n := src.NumGroups()
	for _, k := range splitCounts(rng, nparts) {
		var got []string
		for part := 0; part < k; part++ {
			lo, hi := part*n/k, (part+1)*n/k
			err := engine.ScanGroups(context.Background(), src, []*engine.ScanConsumer{{Filter: f, Paths: paths, Meter: srv.Meter(), Fn: func(blk *engine.ColBlock) bool {
				for _, i := range blk.Sel {
					got = append(got, fmt.Sprint(groupRow(blk.Group, i)))
				}
				return true
			}}}, lo, hi, srv.Meter())
			if err != nil {
				t.Fatal(err)
			}
		}
		checkMultiset(t, fmt.Sprintf("%s (%d parts)", label, k), got, want)
	}
}

func TestPartitionPropertyKeyset(t *testing.T) {
	rowSetProperty(t, func(srv *engine.Server, f predicate.Filter) (*engine.RowSet, error) {
		return srv.OpenKeyset(context.Background(), f)
	})
}

func TestPartitionPropertyTIDJoin(t *testing.T) {
	rowSetProperty(t, func(srv *engine.Server, f predicate.Filter) (*engine.RowSet, error) {
		return srv.CopyTIDs(context.Background(), f)
	})
}

// TestPartitionPropertyFileStore: a staged run — the same row groups in a
// staging file and in memory — partitions by row group like the columnar copy
// does. For every trial the table is staged in groups of uneven sizes (a few
// rows to a few hundred, so even the smallest table spans several), and
// scanning every partition of either source through the block kernel with the
// filter pushed down, concatenated, must reproduce the sequential scan — the
// table's matching rows in order — for every part count of splitCounts,
// including counts past the group count, and filters the zone maps prove empty
// everywhere.
func TestPartitionPropertyFileStore(t *testing.T) {
	propTrials(t, func(t *testing.T, rng *rand.Rand, ds *data.Dataset, f predicate.Filter, nparts int) {
		m, _ := newMW(t, ds, Config{})
		fw, err := m.files.create()
		if err != nil {
			t.Fatal(err)
		}
		var mem []*storage.ColGroup
		b := storage.NewGroupBuilder(ds.Schema.NumCols(), storage.RowGroupSize, 0)
		for i, open := 0, 0; i < ds.N(); i++ {
			b.AppendRow(ds.Rows[i])
			if open++; open == 3+(i*7)%230 || i == ds.N()-1 {
				g := b.Seal()
				fw.writeGroup(g)
				mem, open = append(mem, g), 0
			}
		}
		sf, err := fw.Finish()
		if err != nil {
			t.Fatal(err)
		}
		defer m.files.remove(sf)
		if got := stagedFileRows(t, m, sf); !reflect.DeepEqual(got, ds.Rows) {
			t.Fatal("the staged file does not hold the table's rows in order")
		}
		var want []string
		for _, r := range ds.Rows {
			if f.Eval(r) {
				want = append(want, fmt.Sprint(r))
			}
		}
		costs := m.meter.Costs()
		for _, k := range splitCounts(rng, nparts) {
			for _, src := range []engine.GroupSource{
				m.files.source(sf, new(groupBuf)),
				memGroups{stageCharge{sim.CtrMemRowsRead, costs.MemRowRead}, mem},
			} {
				n := src.NumGroups()
				var got []string
				for part := 0; part < k; part++ {
					lo, hi := part*n/k, (part+1)*n/k
					seg := src
					if _, ok := src.(*fileGroups); ok {
						fsrc := m.files.source(sf, new(groupBuf)) // a segment's own, as in scanRange
						defer fsrc.close()
						seg = fsrc
					}
					err := engine.ScanGroups(context.Background(), seg, []*engine.ScanConsumer{{Filter: f, Meter: m.meter, Fn: func(blk *engine.ColBlock) bool {
						for _, i := range blk.Sel {
							got = append(got, fmt.Sprint(groupRow(blk.Group, i)))
						}
						return true
					}}}, lo, hi, m.meter)
					if err != nil {
						t.Fatal(err)
					}
				}
				checkMultiset(t, fmt.Sprintf("%T (%d parts)", src, k), got, want)
			}
		}
	})
}
