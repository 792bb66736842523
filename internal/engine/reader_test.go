package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestHeapReaderCharges pins the one seam where a heap page is paid for: the
// two paying modes read identical rows and TIDs and differ only in what
// they charge, and whom.
func TestHeapReaderCharges(t *testing.T) {
	f := auxTestFilter()
	type match struct {
		tid storage.TID
		row data.Row
	}
	var want []match
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
				var got []match
				r.scanAll(func(tid storage.TID, row data.Row) bool {
					if f.Eval(row) {
						got = append(got, match{tid, row.Clone()})
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

			// A TID fetch always pays TIDFetch; only a pooled stream can also
			// miss the page.
			tid := want[len(want)-1].tid
			pages, fetches := m.Count(sim.CtrServerPages), m.Count(sim.CtrTIDFetches)
			row, err := r.fetch(tid, nil)
			if err != nil || !reflect.DeepEqual(row, want[len(want)-1].row) {
				t.Errorf("fetch(%v) = %v, %v", tid, row, err)
			}
			if n := m.Count(sim.CtrTIDFetches) - fetches; n != 1 {
				t.Errorf("fetch charged %d TID fetches, want 1", n)
			}
			if n := m.Count(sim.CtrServerPages) - pages; n != 0 {
				t.Errorf("fetch of the page just scanned charged %d pages", n)
			}
			// TIDs whose slot holds no row: page arithmetic alone would alias a
			// slot past the end of a page onto the next page's rows.
			lo, hi := srv.table.heap.PageRows(0)
			perPage := int(hi - lo)
			lastRows := int(srv.NumRows()) - (int(np)-1)*perPage
			if lastRows == perPage {
				t.Fatalf("the last page is full: no partial page to test")
			}
			for _, bad := range []storage.TID{
				{Page: -1},
				{Page: storage.PageID(np)},
				{Page: 0, Slot: uint16(perPage)},
				{Page: storage.PageID(np - 1), Slot: uint16(perPage)},
				{Page: storage.PageID(np - 1), Slot: uint16(lastRows)},
			} {
				fetches := m.Count(sim.CtrTIDFetches)
				if _, err := r.fetch(bad, nil); err == nil {
					t.Errorf("fetch(%v) past the heap returned no error", bad)
				}
				if m.Count(sim.CtrTIDFetches) != fetches {
					t.Errorf("fetch(%v) past the heap was charged", bad)
				}
			}

			// Early stop: fn's false ends the scan within the page.
			n := 0
			r.scanAll(func(storage.TID, data.Row) bool { n++; return n < 10 })
			if n != 10 {
				t.Errorf("scan visited %d rows after fn returned false at 10", n)
			}
		})
	}
}

// TestHeapFetchEveryTID: for random tables of several widths that span row
// group boundaries, every TID Insert returns fetches the row inserted — from
// sealed groups and from the open tail, before and after a DELETE rebuilds the
// table — and the heap walk visits the same rows at the same TIDs.
func TestHeapFetchEveryTID(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		ncols := 1 + rng.Intn(12)
		cols := make([]string, ncols)
		for c := range cols {
			cols[c] = fmt.Sprintf("c%d", c)
		}
		e := newEngine()
		tbl, err := e.CreateTable("t", cols)
		if err != nil {
			t.Fatal(err)
		}
		tids := map[storage.TID]data.Row{}
		insert := func(n int) {
			for i := 0; i < n; i++ {
				row := make(data.Row, ncols)
				for c := range row {
					row[c] = data.Value(rng.Intn(5) - 1) // Missing included
				}
				tid, err := e.Insert(tbl, row)
				if err != nil {
					t.Fatal(err)
				}
				tids[tid] = row
			}
		}
		check := func(stage string) {
			t.Helper()
			r := e.reader(tbl)
			for tid, want := range tids {
				got, err := r.fetch(tid, nil)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %s: fetch(%v) = %v, %v; want %v", trial, stage, tid, got, err, want)
				}
			}
			n := 0
			r.scanAll(func(tid storage.TID, row data.Row) bool {
				if want, ok := tids[tid]; ok && !reflect.DeepEqual(row, want) {
					t.Fatalf("trial %d, %s: the walk read %v at %v, Insert put %v there", trial, stage, row, tid, want)
				}
				n++
				return true
			})
			if int64(n) != tbl.NumRows() {
				t.Fatalf("trial %d, %s: the walk visited %d rows of %d", trial, stage, n, tbl.NumRows())
			}
		}
		insert(storage.RowGroupSize + rng.Intn(2*storage.RowGroupSize))
		check("inserted")
		e.MustExec("DELETE FROM t WHERE c0 = 0")
		if tbl, err = e.Table("t"); err != nil {
			t.Fatal(err)
		}
		// The rebuild renumbers the kept rows; the walk says where they went.
		tids = map[storage.TID]data.Row{}
		e.reader(tbl).scanAll(func(tid storage.TID, row data.Row) bool {
			if row[0] == 0 {
				t.Fatalf("trial %d: a deleted row survived the rebuild at %v", trial, tid)
			}
			tids[tid] = row.Clone()
			return true
		})
		insert(1 + rng.Intn(300))
		check("after DELETE")
	}
}
