package engine

import (
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

// scanPart, keysetPart and joinPart open partition p of np equal-width
// ranges of a heap, a keyset and a TID table.
func scanPart(s *Server, f predicate.Filter, p, np int, lane *sim.Meter) Cursor {
	lo, hi := RangeOf(p, np, s.NumPages(), nil)
	return s.OpenScanRange(f, lo, hi, lane)
}

func keysetPart(k *Keyset, sproc *predicate.Filter, p, np int, lane *sim.Meter) Cursor {
	lo, hi := RangeOf(p, np, k.Size(), nil)
	return k.OpenScanRange(sproc, lo, hi, lane)
}

func joinPart(t *TIDTable, f predicate.Filter, p, np int, lane *sim.Meter) Cursor {
	lo, hi := RangeOf(p, np, t.Size(), nil)
	return t.OpenJoinRange(f, lo, hi, lane)
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

// TestScanPartitionCoversHeapExactlyOnce: the union of all partitions, in
// partition order, is exactly the sequential scan — no row lost, duplicated
// or reordered, for any worker count (including more workers than pages).
func TestScanPartitionCoversHeapExactlyOnce(t *testing.T) {
	srv, _ := partitionTestServer(t, 5000)
	want := drain(srv.OpenScan(predicate.MatchAll()))
	for _, nparts := range []int{1, 2, 3, 4, 8, srv.NumPages(), srv.NumPages() + 3} {
		var got []data.Row
		for p := 0; p < nparts; p++ {
			got = append(got, drain(scanPart(srv, predicate.MatchAll(), p, nparts, nil))...)
		}
		if len(got) != len(want) {
			t.Fatalf("nparts=%d: %d rows, want %d", nparts, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("nparts=%d: row %d differs: %v vs %v", nparts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScanPartitionFilterPushdown: the partition cursor applies the filter
// server-side and charges transmission only for matching rows.
func TestScanPartitionFilterPushdown(t *testing.T) {
	srv, ds := partitionTestServer(t, 3000)
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
		got += int64(len(drain(scanPart(srv, f, p, 4, lanes[p]))))
		transmitted += lanes[p].Count(sim.CtrRowsTransmitted)
	}
	if got != want || transmitted != want {
		t.Errorf("matched %d rows, transmitted %d, want %d", got, transmitted, want)
	}
}

// TestScanPartitionLaneCharging: lane meters absorb the partition's costs and
// sum to a full cold scan; the server's own meter stays untouched, and page
// charges cover each heap page exactly once across disjoint partitions.
func TestScanPartitionLaneCharging(t *testing.T) {
	srv, ds := partitionTestServer(t, 4000)
	before := srv.Meter().Snapshot()
	lanes := srv.Meter().Fork(3)
	var pages, rows int64
	for p := 0; p < 3; p++ {
		drain(scanPart(srv, predicate.MatchAll(), p, 3, lanes[p]))
		pages += lanes[p].Count(sim.CtrServerPages)
		rows += lanes[p].Count(sim.CtrServerRows)
		if lanes[p].Count(sim.CtrServerScans) != 1 {
			t.Errorf("lane %d: %d cursor opens, want 1", p, lanes[p].Count(sim.CtrServerScans))
		}
	}
	if pages != int64(srv.NumPages()) {
		t.Errorf("lanes charged %d pages, want %d (each page exactly once)", pages, srv.NumPages())
	}
	if rows != int64(ds.N()) {
		t.Errorf("lanes charged %d rows, want %d", rows, ds.N())
	}
	if srv.Meter().Since(before) != 0 {
		t.Errorf("partition scan with lanes charged the server meter by %v", srv.Meter().Since(before))
	}
}

// TestPartitionOverSubscription pins the nparts > units behavior of every
// partitioned source: partitions past the unit count come back empty, no
// cursor panics, and the union still covers every unit exactly once — for
// tiny tables (down to a single row) and for empty auxiliary structures.
func TestPartitionOverSubscription(t *testing.T) {
	all := predicate.MatchAll()
	none := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 9}}) // card 4: matches nothing
	for _, n := range []int{1, 3, 40, 700} {
		srv, _ := partitionTestServer(t, n)
		ks := srv.OpenKeyset(all, 1)
		emptyKS := srv.OpenKeyset(none, 1)
		tt := srv.CopyTIDs(all, 1)
		emptyTT := srv.CopyTIDs(none, 1)
		sources := []struct {
			name  string
			units int
			open  func(part, nparts int) Cursor
		}{
			{"server-scan", srv.NumPages(), func(p, np int) Cursor {
				return scanPart(srv, all, p, np, nil)
			}},
			{"keyset", ks.Size(), func(p, np int) Cursor {
				return keysetPart(ks, nil, p, np, nil)
			}},
			{"keyset-empty", emptyKS.Size(), func(p, np int) Cursor {
				return keysetPart(emptyKS, nil, p, np, nil)
			}},
			{"tid-join", tt.Size(), func(p, np int) Cursor {
				return joinPart(tt, all, p, np, nil)
			}},
			{"tid-join-empty", emptyTT.Size(), func(p, np int) Cursor {
				return joinPart(emptyTT, all, p, np, nil)
			}},
		}
		for _, src := range sources {
			want := len(drain(src.open(0, 1)))
			for _, nparts := range []int{src.units + 1, 2*src.units + 3, 16} {
				if nparts < 1 {
					nparts = 1
				}
				got, empties := 0, 0
				for p := 0; p < nparts; p++ {
					rows := len(drain(src.open(p, nparts)))
					if rows == 0 {
						empties++
					}
					got += rows
				}
				if got != want {
					t.Errorf("n=%d %s nparts=%d: drained %d rows, want %d", n, src.name, nparts, got, want)
				}
				if nparts > src.units && empties == 0 && src.units > 0 {
					t.Errorf("n=%d %s nparts=%d over %d units: expected empty partitions", n, src.name, nparts, src.units)
				}
			}
		}
	}
}
