package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// tailTestData is a 1.5-group table of three attributes over {0..3} and a
// binary class: every whole-table scan reads one sealed group and the lazily
// encoded tail.
func tailTestData() *data.Dataset {
	rng := rand.New(rand.NewSource(11))
	ds := data.NewDataset(data.NewSchema(3, 4, 2))
	for i := 0; i < 6144; i++ {
		ds.Append(data.Row{data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(2))})
	}
	return ds
}

// TestColStoreTailConcurrentScans: concurrent whole-copy scans — what the
// sessions of a fleet and the segments of a pass run — all encode the open
// tail group on first touch. Run under -race: the tail's lazy sealing must be
// serialized, and every scan must select the same rows.
func TestColStoreTailConcurrentScans(t *testing.T) {
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", tailTestData())
	if err != nil {
		t.Fatal(err)
	}
	if srv.NumColGroups() != 2 {
		t.Fatalf("table has %d row groups, want a sealed one and a tail", srv.NumColGroups())
	}
	f := predicate.Or(predicate.Conj{{Attr: 1, Op: predicate.Eq, Val: 2}})
	const scans = 8
	sels := make([][]int32, scans)
	var wg sync.WaitGroup
	for i := 0; i < scans; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := sim.NewMeter(srv.Meter().Costs())
			srv.ScanColumnarRange(f, nil, 0, srv.NumColGroups(), m, func(blk *ColBlock) bool {
				for _, r := range blk.Sel {
					sels[i] = append(sels[i], int32(blk.GroupIndex)<<16|r)
				}
				return true
			})
		}(i)
	}
	wg.Wait()
	if len(sels[0]) == 0 {
		t.Fatal("the scan selected nothing")
	}
	for i := 1; i < scans; i++ {
		if !reflect.DeepEqual(sels[i], sels[0]) {
			t.Errorf("scan %d selected %d rows, scan 0 %d", i, len(sels[i]), len(sels[0]))
		}
	}
}
