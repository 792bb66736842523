package engine

import (
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
)

func auxTestFilter() predicate.Filter {
	return predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}})
}

// TestParallelBuildersMatchSerial: the keyset, TID-table and copy-table
// builders produce exactly the structures their one-lane builds do (same
// rows captured per row group, same copied rows in the same heap order), for
// any worker count including more workers than row groups — and the rows
// captured are the table's rows matching the filter, in heap order.
func TestParallelBuildersMatchSerial(t *testing.T) {
	f := auxTestFilter()
	for _, nw := range []int{1, 2, 3, 4, 100} {
		srv, ds := partitionTestServer(t, 14000)
		var want []data.Row
		for _, r := range ds.Rows {
			if f.Eval(r) {
				want = append(want, r)
			}
		}
		wantKS := srv.OpenKeyset(f, 1)
		wantTT := srv.CopyTIDs(f, 1)
		wantSub, err := srv.CopySubset(f, 1)
		if err != nil {
			t.Fatal(err)
		}

		gotKS := srv.OpenKeyset(f, nw)
		if !reflect.DeepEqual(gotKS.held, wantKS.held) {
			t.Errorf("nw=%d: keyset differs from the one-lane build's (%d vs %d rows)",
				nw, gotKS.Size(), wantKS.Size())
		}
		if got := scanPart(srv, gotKS, predicate.MatchAll(), 0, 1, nil); !sameRows(got, want) {
			t.Errorf("nw=%d: keyset holds %d rows, the filter matches %d (or content differs)", nw, len(got), len(want))
		}
		gotTT := srv.CopyTIDs(f, nw)
		if !reflect.DeepEqual(gotTT.held, wantTT.held) {
			t.Errorf("nw=%d: TID table differs from the one-lane build's (%d vs %d rows)",
				nw, gotTT.Size(), wantTT.Size())
		}
		gotSub, err := srv.CopySubset(f, nw)
		if err != nil {
			t.Fatal(err)
		}
		wantRows := drain(wantSub.OpenScan(predicate.MatchAll()))
		gotRows := drain(gotSub.OpenScan(predicate.MatchAll()))
		if !reflect.DeepEqual(gotRows, wantRows) || !sameRows(gotRows, want) {
			t.Errorf("nw=%d: copy-table rows differ from the one-lane build's or the filter's (%d vs %d vs %d)",
				nw, len(gotRows), len(wantRows), len(want))
		}
	}
}

// TestParallelBuildersChargeLanes: a partitioned build advances the server
// clock by the slowest lane plus nothing serial, which is strictly less than
// the one-lane build's full-scan time for a table big enough to split.
func TestParallelBuildersChargeLanes(t *testing.T) {
	f := auxTestFilter()
	srvSerial, _ := partitionTestServer(t, 20000)
	srvSerial.OpenKeyset(f, 1)
	serial := srvSerial.Meter().Now()

	srvPar, _ := partitionTestServer(t, 20000)
	srvPar.OpenKeyset(f, 4)
	parallel := srvPar.Meter().Now()

	if parallel >= serial {
		t.Errorf("parallel keyset build took %v, serial %v — no speedup", parallel, serial)
	}
}

// TestKeysetScanPartitionCoversKeysetExactlyOnce: the union of all keyset
// scan partitions, in partition order, equals the serial keyset re-scan, which
// is the table's rows passing both the keyset's predicate and the stored
// procedure's, in heap order.
func TestKeysetScanPartitionCoversKeysetExactlyOnce(t *testing.T) {
	srv, ds := partitionTestServer(t, 14000)
	f := auxTestFilter()
	ks := srv.OpenKeyset(f, 1)
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
	tt := srv.CopyTIDs(f, 1)
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
	ks := srv.OpenKeyset(f, 1)
	tt := srv.CopyTIDs(f, 1)
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
