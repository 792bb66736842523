package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
)

func auxTestFilter() predicate.Filter {
	return predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}})
}

// captured fails t on a capture's error and returns its row set.
func captured(t *testing.T) func(*RowSet, error) *RowSet {
	return func(rs *RowSet, err error) *RowSet {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
}

// TestAuxBuildersCaptureMatchingRows: the keyset and the TID table capture,
// per row group, exactly the table's rows matching the filter, in heap order,
// and the copy-table holds those rows in the same order.
func TestAuxBuildersCaptureMatchingRows(t *testing.T) {
	f := auxTestFilter()
	srv, ds := partitionTestServer(t, 14000)
	var want []data.Row
	for _, r := range ds.Rows {
		if f.Eval(r) {
			want = append(want, r)
		}
	}
	ks := captured(t)(srv.OpenKeyset(context.Background(), f))
	if got := scanPart(srv, ks, predicate.MatchAll(), 0, 1, nil); !sameRows(got, want) {
		t.Errorf("keyset holds %d rows, the filter matches %d (or content differs)", len(got), len(want))
	}
	tt := captured(t)(srv.CopyTIDs(context.Background(), f))
	if !reflect.DeepEqual(tt.held, ks.held) {
		t.Errorf("TID table holds %d rows, the keyset %d (or they differ)", tt.Size(), ks.Size())
	}
	sub, err := srv.CopySubset(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(sub.OpenScan(predicate.MatchAll())); !sameRows(got, want) {
		t.Errorf("copy-table holds %d rows, the filter matches %d (or content differs)", len(got), len(want))
	}
}

// TestKeysetScanPartitionCoversKeysetExactlyOnce: the union of all keyset
// scan partitions, in partition order, equals the serial keyset re-scan, which
// is the table's rows passing both the keyset's predicate and the stored
// procedure's, in heap order.
func TestKeysetScanPartitionCoversKeysetExactlyOnce(t *testing.T) {
	srv, ds := partitionTestServer(t, 14000)
	f := auxTestFilter()
	ks := captured(t)(srv.OpenKeyset(context.Background(), f))
	sproc := predicate.Or(predicate.Conj{{Attr: 1, Op: predicate.Eq, Val: 2}})
	var want []data.Row
	for _, r := range ds.Rows {
		if f.Eval(r) && sproc.Eval(r) {
			want = append(want, r)
		}
	}
	for _, nparts := range []int{1, 2, 3, 5, ks.NumGroups(), ks.NumGroups() + 7} {
		var got []data.Row
		for p := 0; p < nparts; p++ {
			got = append(got, scanPart(srv, ks, sproc, p, nparts, nil)...)
		}
		if !sameRows(got, want) {
			t.Fatalf("nparts=%d: %d rows, want %d (or order differs)", nparts, len(got), len(want))
		}
	}
}

// TestTIDJoinPartitionCoversTableExactlyOnce: the union of all TID-join
// partitions, in partition order, equals the serial TID join: the captured
// rows passing the join's filter, in heap order.
func TestTIDJoinPartitionCoversTableExactlyOnce(t *testing.T) {
	srv, ds := partitionTestServer(t, 14000)
	f := auxTestFilter()
	tt := captured(t)(srv.CopyTIDs(context.Background(), f))
	sub := predicate.Or(predicate.Conj{
		{Attr: 0, Op: predicate.Eq, Val: 1},
		{Attr: 2, Op: predicate.Ne, Val: 3},
	})
	var want []data.Row
	for _, r := range ds.Rows {
		if f.Eval(r) && sub.Eval(r) {
			want = append(want, r)
		}
	}
	for _, nparts := range []int{1, 2, 4, 7} {
		var got []data.Row
		for p := 0; p < nparts; p++ {
			got = append(got, scanPart(srv, tt, sub, p, nparts, nil)...)
		}
		if !sameRows(got, want) {
			t.Fatalf("nparts=%d: %d rows, want %d (or order differs)", nparts, len(got), len(want))
		}
	}
}

// TestAuxPartitionLaneCharging: partitioned keyset/TID-join scans charge
// only their lane meters — one cursor open per lane, one TID fetch and one
// stored-procedure evaluation per captured record, never a page or a block
// price — and leave the server meter untouched.
func TestAuxPartitionLaneCharging(t *testing.T) {
	srv, _ := partitionTestServer(t, 14000)
	f := auxTestFilter()
	ks := captured(t)(srv.OpenKeyset(context.Background(), f))
	tt := captured(t)(srv.CopyTIDs(context.Background(), f))
	before := srv.Meter().Snapshot()
	costs := srv.Meter().Costs()

	lanes := srv.Meter().Fork(3)
	var fetches int64
	for p := 0; p < 3; p++ {
		sent := int64(len(scanPart(srv, ks, predicate.MatchAll(), p, 3, lanes[p])))
		if got := lanes[p].Count(sim.CtrServerScans); got != 1 {
			t.Errorf("keyset lane %d: %d cursor opens, want 1", p, got)
		}
		n := lanes[p].Count(sim.CtrTIDFetches)
		if got, want := int64(lanes[p].Now()), costs.CursorOpen+n*(costs.TIDFetch+costs.ServerRowCPU)+sent*costs.RowTransmit; got != want {
			t.Errorf("keyset lane %d: %d virtual ns for %d fetches, %d rows sent; want %d", p, got, n, sent, want)
		}
		if lanes[p].Count(sim.CtrServerPages) != 0 || lanes[p].Count(sim.CtrServerRows) != n || sent != n {
			t.Errorf("keyset lane %d: pages %d, rows evaluated %d, sent %d for %d fetches",
				p, lanes[p].Count(sim.CtrServerPages), lanes[p].Count(sim.CtrServerRows), sent, n)
		}
		fetches += n
	}
	if fetches != int64(ks.Size()) {
		t.Errorf("keyset lanes charged %d TID fetches, want %d", fetches, ks.Size())
	}

	lanes = srv.Meter().Fork(3)
	fetches = 0
	for p := 0; p < 3; p++ {
		scanPart(srv, tt, predicate.MatchAll(), p, 3, lanes[p])
		fetches += lanes[p].Count(sim.CtrTIDFetches)
		if got, want := lanes[p].Count(sim.CtrIndexProbes), lanes[p].Count(sim.CtrTIDFetches); got != want {
			t.Errorf("tid-join lane %d: %d index probes, want %d", p, got, want)
		}
	}
	if fetches != int64(tt.Size()) {
		t.Errorf("tid-join lanes charged %d TID fetches, want %d", fetches, tt.Size())
	}

	if srv.Meter().Since(before) != 0 {
		t.Errorf("partitioned aux scans charged the server meter by %v", srv.Meter().Since(before))
	}
}
