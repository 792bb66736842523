package engine

import (
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/sim"
)

// TestHeapReaderCharges pins the one seam where a heap page is paid for: the
// two paying modes read identical rows and differ only in what they charge,
// and whom.
func TestHeapReaderCharges(t *testing.T) {
	f := auxTestFilter()
	var want []data.Row
	for _, tc := range []struct {
		name      string
		poolPages int // 0: DefaultBufferPages, which holds the table
		open      func(s *Server, m *sim.Meter) heapReader
		first     bool // pages charged on the first pass
		second    bool // ... and on the second
		pool      bool // the pool sees the accesses
	}{
		// Pooled through a View: the miss is charged to the view's meter.
		{"pooled/fits", 0, func(s *Server, m *sim.Meter) heapReader { return s.View(m, nil).reader() }, true, false, true},
		{"pooled/floods", 2, func(s *Server, m *sim.Meter) heapReader { return s.View(m, nil).reader() }, true, true, true},
		{"cold", 0, func(s *Server, m *sim.Meter) heapReader {
			return heapReader{t: s.table, meter: m, mode: payCold}
		}, true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ds := partitionTestServer(t, 4000)
			srv, err := NewServer(New(sim.NewDefaultMeter(), tc.poolPages), "cases", ds)
			if err != nil {
				t.Fatal(err)
			}
			np := int64(srv.NumPages())
			if np < 3 {
				t.Fatalf("test table has %d pages, need >= 3", np)
			}
			m := sim.NewMeter(srv.Meter().Costs())
			r := tc.open(srv, m)
			for pass, charged := range []bool{tc.first, tc.second} {
				pages, rows := m.Count(sim.CtrServerPages), m.Count(sim.CtrServerRows)
				hits, misses := srv.eng.bp.Stats()
				var got []data.Row
				r.scanAll(func(row data.Row) bool {
					if f.Eval(row) {
						got = append(got, row.Clone())
					}
					return true
				})
				if want == nil {
					want = got
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("pass %d: read %d matches, want the %d every mode reads", pass, len(got), len(want))
				}
				wantPages := int64(0)
				if charged {
					wantPages = np
				}
				if n := m.Count(sim.CtrServerPages) - pages; n != wantPages {
					t.Errorf("pass %d: charged %d pages, want %d", pass, n, wantPages)
				}
				if n := m.Count(sim.CtrServerRows) - rows; n != int64(ds.N()) {
					t.Errorf("pass %d: charged %d rows, want %d", pass, n, ds.N())
				}
				h2, m2 := srv.eng.bp.Stats()
				if touched := h2+m2 != hits+misses; touched != tc.pool {
					t.Errorf("pass %d: pool touched = %v, want %v", pass, touched, tc.pool)
				}
			}
			if n := srv.Meter().Now(); n != 0 {
				t.Errorf("the engine's own meter advanced by %v; the stream pays", n)
			}

			// Early stop: fn's false ends the scan within the page.
			n := 0
			r.scanAll(func(data.Row) bool { n++; return n < 10 })
			if n != 10 {
				t.Errorf("scan visited %d rows after fn returned false at 10", n)
			}
		})
	}
}
