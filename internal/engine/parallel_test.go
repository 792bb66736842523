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
// TIDs in the same order, same copied rows in the same heap order), for any
// worker count including more workers than pages.
func TestParallelBuildersMatchSerial(t *testing.T) {
	f := auxTestFilter()
	for _, nw := range []int{1, 2, 3, 4, 100} {
		srv, _ := partitionTestServer(t, 4000)
		wantKS := srv.OpenKeyset(f, 1)
		wantTT := srv.CopyTIDs(f, 1)
		wantSub, err := srv.CopySubset(f, 1)
		if err != nil {
			t.Fatal(err)
		}

		gotKS := srv.OpenKeyset(f, nw)
		if !reflect.DeepEqual(gotKS.tids, wantKS.tids) {
			t.Errorf("nw=%d: keyset TIDs differ from the one-lane build's (%d vs %d)",
				nw, len(gotKS.tids), len(wantKS.tids))
		}
		gotTT := srv.CopyTIDs(f, nw)
		if !reflect.DeepEqual(gotTT.tids, wantTT.tids) {
			t.Errorf("nw=%d: TID table differs from the one-lane build's (%d vs %d)",
				nw, len(gotTT.tids), len(wantTT.tids))
		}
		gotSub, err := srv.CopySubset(f, nw)
		if err != nil {
			t.Fatal(err)
		}
		wantRows := drain(wantSub.OpenScan(predicate.MatchAll()))
		gotRows := drain(gotSub.OpenScan(predicate.MatchAll()))
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Errorf("nw=%d: copy-table rows differ from the one-lane build's (%d vs %d)",
				nw, len(gotRows), len(wantRows))
		}
	}
}

// TestParallelBuildersChargeLanes: a partitioned build advances the server
// clock by the slowest lane plus nothing serial, which is strictly less than
// the one-lane build's full-scan time for a table big enough to split.
func TestParallelBuildersChargeLanes(t *testing.T) {
	f := auxTestFilter()
	srvSerial, _ := partitionTestServer(t, 6000)
	srvSerial.OpenKeyset(f, 1)
	serial := srvSerial.Meter().Now()

	srvPar, _ := partitionTestServer(t, 6000)
	srvPar.OpenKeyset(f, 4)
	parallel := srvPar.Meter().Now()

	if parallel >= serial {
		t.Errorf("parallel keyset build took %v, serial %v — no speedup", parallel, serial)
	}
}

// TestKeysetScanPartitionCoversKeysetExactlyOnce: the union of all keyset
// scan partitions, in partition order, equals the serial keyset re-scan.
func TestKeysetScanPartitionCoversKeysetExactlyOnce(t *testing.T) {
	srv, _ := partitionTestServer(t, 3000)
	f := auxTestFilter()
	ks := srv.OpenKeyset(f, 1)
	sproc := predicate.Or(predicate.Conj{{Attr: 1, Op: predicate.Eq, Val: 2}})
	want := drain(ks.OpenScanRange(&sproc, 0, ks.Size(), nil))
	for _, nparts := range []int{1, 2, 3, 5, ks.Size(), ks.Size() + 7} {
		var got []data.Row
		for p := 0; p < nparts; p++ {
			got = append(got, drain(keysetPart(ks, &sproc, p, nparts, nil))...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("nparts=%d: %d rows, want %d (or order differs)", nparts, len(got), len(want))
		}
	}
}

// TestTIDJoinPartitionCoversTableExactlyOnce: the union of all TID-join
// partitions, in partition order, equals the serial TID join.
func TestTIDJoinPartitionCoversTableExactlyOnce(t *testing.T) {
	srv, _ := partitionTestServer(t, 3000)
	f := auxTestFilter()
	tt := srv.CopyTIDs(f, 1)
	sub := predicate.Or(predicate.Conj{
		{Attr: 0, Op: predicate.Eq, Val: 1},
		{Attr: 2, Op: predicate.Ne, Val: 3},
	})
	want := drain(tt.OpenJoinRange(sub, 0, tt.Size(), nil))
	for _, nparts := range []int{1, 2, 4, 7} {
		var got []data.Row
		for p := 0; p < nparts; p++ {
			got = append(got, drain(joinPart(tt, sub, p, nparts, nil))...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("nparts=%d: %d rows, want %d (or order differs)", nparts, len(got), len(want))
		}
	}
}

// TestAuxPartitionLaneCharging: partitioned keyset/TID-join cursors charge
// only their lane meters — one cursor open per lane, one TID fetch per
// record — and leave the server meter untouched.
func TestAuxPartitionLaneCharging(t *testing.T) {
	srv, _ := partitionTestServer(t, 3000)
	f := auxTestFilter()
	ks := srv.OpenKeyset(f, 1)
	tt := srv.CopyTIDs(f, 1)
	before := srv.Meter().Snapshot()

	lanes := srv.Meter().Fork(3)
	var fetches int64
	for p := 0; p < 3; p++ {
		drain(keysetPart(ks, nil, p, 3, lanes[p]))
		if got := lanes[p].Count(sim.CtrServerScans); got != 1 {
			t.Errorf("keyset lane %d: %d cursor opens, want 1", p, got)
		}
		fetches += lanes[p].Count(sim.CtrTIDFetches)
	}
	if fetches != int64(ks.Size()) {
		t.Errorf("keyset lanes charged %d TID fetches, want %d", fetches, ks.Size())
	}

	lanes = srv.Meter().Fork(3)
	fetches = 0
	for p := 0; p < 3; p++ {
		drain(joinPart(tt, predicate.MatchAll(), p, 3, lanes[p]))
		fetches += lanes[p].Count(sim.CtrTIDFetches)
		if got, want := lanes[p].Count(sim.CtrIndexProbes), lanes[p].Count(sim.CtrTIDFetches); got != want {
			t.Errorf("tid-join lane %d: %d index probes, want %d", p, got, want)
		}
	}
	if fetches != int64(tt.Size()) {
		t.Errorf("tid-join lanes charged %d TID fetches, want %d", fetches, tt.Size())
	}

	if srv.Meter().Since(before) != 0 {
		t.Errorf("partitioned aux cursors charged the server meter by %v", srv.Meter().Since(before))
	}
}

// TestCountsArmScanAggregates: one GROUP BY arm charges a cold scan of every
// page and one aggregation step per qualifying row — never a statement
// startup, which belongs to the request's single UNION statement on the
// parent — and hands exactly the qualifying rows to the caller. A warm arm
// (table resident in the buffer pool) pays no page IO but all per-row costs.
func TestCountsArmScanAggregates(t *testing.T) {
	srv, ds := partitionTestServer(t, 2000)
	f := auxTestFilter()
	var want int64
	for _, r := range ds.Rows {
		if r[0] == 1 {
			want++
		}
	}
	lane := srv.Meter().Fork(1)[0]
	var got int64
	srv.CountsArmScan(f, lane, false, func(data.Row) { got++ })
	if got != want {
		t.Errorf("arm scan handed %d rows to fn, want %d", got, want)
	}
	if n := lane.Count(sim.CtrSQLStatements); n != 0 {
		t.Errorf("arm scan charged %d statements, want 0 (startup is per request, not per arm)", n)
	}
	if n := lane.Count(sim.CtrSQLAggRows); n != want {
		t.Errorf("arm scan charged %d agg rows, want %d", n, want)
	}
	if n := lane.Count(sim.CtrServerPages); n != int64(srv.NumPages()) {
		t.Errorf("arm scan charged %d pages, want %d", n, srv.NumPages())
	}

	cold := lane.Now()
	srv.CountsArmScan(f, lane, true, func(data.Row) {})
	if n := lane.Count(sim.CtrServerPages); n != int64(srv.NumPages()) {
		t.Errorf("warm arm scan charged page IO: %d pages total, want %d", n, srv.NumPages())
	}
	warmCost := lane.Now() - cold
	if warmCost <= 0 || warmCost >= cold {
		t.Errorf("warm arm cost %v not in (0, cold cost %v)", warmCost, cold)
	}
	if n := lane.Count(sim.CtrSQLAggRows); n != 2*want {
		t.Errorf("warm arm scan charged %d agg rows total, want %d", n, 2*want)
	}
}

// TestWarmTableResidency: WarmTable faults a pool-sized table in once (later
// calls hit resident pages for free) and refuses to warm a table larger than
// the pool, where sequential scans flood the LRU.
func TestWarmTableResidency(t *testing.T) {
	srv, ds := partitionTestServer(t, 2000)
	meter := srv.Meter()
	if !srv.WarmTable() {
		t.Fatal("table within pool capacity reported not warmable")
	}
	after := meter.Count(sim.CtrServerPages)
	if !srv.WarmTable() {
		t.Fatal("second WarmTable call reported not warmable")
	}
	if n := meter.Count(sim.CtrServerPages); n != after {
		t.Errorf("second WarmTable re-faulted %d pages, want 0", n-after)
	}

	// A one-page pool can never hold the multi-page table.
	small, err := NewServer(New(sim.NewDefaultMeter(), 1), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumPages() < 2 {
		t.Fatalf("test table has %d pages, need >= 2", small.NumPages())
	}
	if small.WarmTable() {
		t.Error("table larger than the pool reported warm")
	}
}
