package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
)

func partitionTestServer(t *testing.T, n int) (*Server, *data.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	s := data.NewSchema(3, 4, 2)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		ds.Append(data.Row{
			data.Value(rng.Intn(4)), data.Value(rng.Intn(4)),
			data.Value(rng.Intn(4)), data.Value(rng.Intn(2)),
		})
	}
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ds
}

// scanPart drains partition p of np equal-width row-group ranges of src with f
// pushed down, charging m (the server's own meter when nil): the rows the
// scan selects, in order. A row set is scanned with f's paths attached, as
// the middleware scans one.
func scanPart(s *Server, src GroupSource, f predicate.Filter, p, np int, m *sim.Meter) []data.Row {
	if m == nil {
		m = s.meter
	}
	var out []data.Row
	n := src.NumGroups()
	lo, hi := p*n/np, (p+1)*n/np
	c := &ScanConsumer{Filter: f, Meter: m, Fn: func(blk *ColBlock) bool {
		for _, i := range blk.Sel {
			out = append(out, groupRow(blk.Group, i))
		}
		return true
	}}
	if _, ok := src.(*RowSet); ok {
		c.Paths = filterPaths(f)
	}
	ScanGroups(context.Background(), src, []*ScanConsumer{c}, lo, hi, m)
	return out
}

// filterPaths returns the trie of f's disjuncts, the root's empty path for
// match-all: the paths a consumer of a row set attaches to scan by f.
func filterPaths(f predicate.Filter) *predicate.Trie {
	if f.All() {
		return predicate.NewTrie([]predicate.Conj{nil})
	}
	return f.Trie()
}

func drain(c Cursor) []data.Row {
	var out []data.Row
	for {
		r, ok := c.Next()
		if !ok {
			c.Close()
			return out
		}
		out = append(out, r.Clone())
	}
}

// TestScanPartitionCoversHeapExactlyOnce: the union of all row-group
// partitions of the columnar copy, in partition order, is exactly the
// sequential heap cursor's scan — no row lost, duplicated or reordered, for any
// worker count (including more workers than groups).
func TestScanPartitionCoversHeapExactlyOnce(t *testing.T) {
	srv, _ := partitionTestServer(t, 20000)
	want := drain(srv.OpenScan(predicate.MatchAll()))
	ng := srv.NumColGroups()
	for _, nparts := range []int{1, 2, 3, 4, 8, ng, ng + 3} {
		var got []data.Row
		for p := 0; p < nparts; p++ {
			got = append(got, scanPart(srv, srv.ColGroups(nil), predicate.MatchAll(), p, nparts, nil)...)
		}
		if !sameRows(got, want) {
			t.Fatalf("nparts=%d: %d rows, want %d (or content differs)", nparts, len(got), len(want))
		}
	}
}

// TestScanPartitionFilterPushdown: a partition's scan applies the filter
// server-side and charges transmission only for matching rows.
func TestScanPartitionFilterPushdown(t *testing.T) {
	srv, ds := partitionTestServer(t, 20000)
	f := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 2}})
	var want int64
	for _, r := range ds.Rows {
		if r[0] == 2 {
			want++
		}
	}
	lanes := srv.Meter().Fork(4)
	var got, transmitted int64
	for p := 0; p < 4; p++ {
		got += int64(len(scanPart(srv, srv.ColGroups(nil), f, p, 4, lanes[p])))
		transmitted += lanes[p].Count(sim.CtrRowsTransmitted)
	}
	if got != want || transmitted != want {
		t.Errorf("matched %d rows, transmitted %d, want %d", got, transmitted, want)
	}
}

// TestScanPartitionLaneCharging: lane meters absorb the partition's costs and
// sum to a full scan; the server's own meter stays untouched, and page charges
// cover each row group's pages exactly once across disjoint partitions.
func TestScanPartitionLaneCharging(t *testing.T) {
	srv, ds := partitionTestServer(t, 20000)
	var wantPages int64
	for gi := 0; gi < srv.NumColGroups(); gi++ {
		wantPages += srv.table.colstore.Group(gi).Pages(nil)
	}
	before := srv.Meter().Snapshot()
	lanes := srv.Meter().Fork(3)
	var pages, rows int64
	for p := 0; p < 3; p++ {
		scanPart(srv, srv.ColGroups(nil), predicate.MatchAll(), p, 3, lanes[p])
		pages += lanes[p].Count(sim.CtrServerPages)
		rows += lanes[p].Count(sim.CtrServerRows)
		if lanes[p].Count(sim.CtrServerScans) != 1 {
			t.Errorf("lane %d: %d cursor opens, want 1", p, lanes[p].Count(sim.CtrServerScans))
		}
	}
	if pages != wantPages {
		t.Errorf("lanes charged %d pages, want %d (each group's pages exactly once)", pages, wantPages)
	}
	if rows != int64(ds.N()) {
		t.Errorf("lanes charged %d rows, want %d", rows, ds.N())
	}
	if srv.Meter().Since(before) != 0 {
		t.Errorf("partition scan with lanes charged the server meter by %v", srv.Meter().Since(before))
	}
}

// TestPartitionOverSubscription pins the nparts > units behavior of every
// server source: partitions past the row-group count come back empty, no scan
// panics, and the union still covers every row exactly once — for tiny tables
// (down to a single row) and for empty auxiliary structures.
func TestPartitionOverSubscription(t *testing.T) {
	all := predicate.MatchAll()
	none := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 9}}) // card 4: matches nothing
	for _, n := range []int{1, 3, 40, 700, 9000} {
		srv, _ := partitionTestServer(t, n)
		sources := []struct {
			name string
			src  GroupSource
			want int
		}{
			{"server-scan", srv.ColGroups(nil), n},
			{"keyset", captured(t)(srv.OpenKeyset(context.Background(), all)), n},
			{"keyset-empty", captured(t)(srv.OpenKeyset(context.Background(), none)), 0},
			{"tid-join", captured(t)(srv.CopyTIDs(context.Background(), all)), n},
			{"tid-join-empty", captured(t)(srv.CopyTIDs(context.Background(), none)), 0},
		}
		for _, src := range sources {
			units := src.src.NumGroups()
			for _, nparts := range []int{units + 1, 2*units + 3, 16} {
				got, empties := 0, 0
				for p := 0; p < nparts; p++ {
					rows := len(scanPart(srv, src.src, all, p, nparts, nil))
					if rows == 0 {
						empties++
					}
					got += rows
				}
				if got != src.want {
					t.Errorf("n=%d %s nparts=%d: drained %d rows, want %d", n, src.name, nparts, got, src.want)
				}
				if nparts > units && empties == 0 {
					t.Errorf("n=%d %s nparts=%d over %d units: expected empty partitions", n, src.name, nparts, units)
				}
			}
		}
	}
}
