package engine

import (
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestHeapReaderCharges pins the one seam where a heap page is paid for, the
// whole-table cursor: opened on a View, every pass charges each of the
// table's pages and each of its rows to the view's meter, none to the
// engine's, and reads the rows the filter selects in heap order; an early
// Close stops the scan.
func TestHeapReaderCharges(t *testing.T) {
	srv, ds := partitionTestServer(t, 4000)
	np := int64(srv.NumPages())
	if np < 3 {
		t.Fatalf("test table has %d pages, need >= 3", np)
	}
	f := auxTestFilter()
	var want []data.Row
	for _, r := range ds.Rows {
		if f.Eval(r) {
			want = append(want, r)
		}
	}
	m := sim.NewMeter(srv.Meter().Costs())
	view := srv.View(m, nil)
	for pass := 0; pass < 2; pass++ {
		before := m.CounterVec()
		var got []data.Row
		cur := view.OpenScan(f)
		for row, ok := cur.Next(); ok; row, ok = cur.Next() {
			got = append(got, row.Clone())
		}
		cur.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d: read %d matches, want the %d the dataset holds", pass, len(got), len(want))
		}
		d := m.CounterVec().Delta(before)
		if d[sim.CtrServerPages] != np || d[sim.CtrServerRows] != int64(ds.N()) || d[sim.CtrRowsTransmitted] != int64(len(want)) {
			t.Errorf("pass %d: charged %d pages, %d rows, %d transmitted; want %d, %d, %d", pass,
				d[sim.CtrServerPages], d[sim.CtrServerRows], d[sim.CtrRowsTransmitted], np, ds.N(), len(want))
		}
	}
	if n := srv.Meter().Now(); n != 0 {
		t.Errorf("the engine's own meter advanced by %v; the stream pays", n)
	}

	// Early stop: Close ends the scan within the page.
	before := m.CounterVec()
	cur := view.OpenScan(f)
	for i := 0; i < 10; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("the scan ended after %d rows", i)
		}
	}
	cur.Close()
	if _, ok := cur.Next(); ok {
		t.Error("Next produced a row after Close")
	}
	if n := m.CounterVec().Delta(before)[sim.CtrServerPages]; n != 1 {
		t.Errorf("ten rows of the first page charged %d pages, want 1", n)
	}
}

// TestCursorSpanEndsOnce: the cursor's server-scan span ends exactly once,
// recording the rows transmitted, whether the scan runs out or is closed
// mid-table — and neither a later Close nor a later Next moves it.
func TestCursorSpanEndsOnce(t *testing.T) {
	srv, ds := partitionTestServer(t, 4000)
	f := auxTestFilter()
	matches := int64(0)
	for _, r := range ds.Rows {
		if f.Eval(r) {
			matches++
		}
	}
	for _, tc := range []struct {
		name string
		read int64 // rows read before Close; -1: until the scan runs out
	}{
		{"exhausted", -1},
		{"closed", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.NewMeter(srv.Meter().Costs())
			col := obs.NewTrace()
			cur := srv.View(m, col.Proc("scan", m)).OpenScan(f)
			n := int64(0)
			for ; n != tc.read; n++ {
				if _, ok := cur.Next(); !ok {
					break
				}
			}
			want := matches
			if tc.read >= 0 {
				want = tc.read
				cur.Close()
			}
			end := m.Now()
			cur.Close()
			cur.Next()
			m.Charge(sim.CtrServerRows, 1, 1)
			cur.Close()

			var spans []*obs.Span
			col.EachProc(func(pv obs.ProcView) { spans = pv.Spans })
			if len(spans) != 1 || spans[0].Name != "server-scan" {
				t.Fatalf("the scan recorded %d spans, want one server-scan", len(spans))
			}
			sp := spans[0]
			if sp.Deltas == nil {
				t.Fatal("the server-scan span never ended")
			}
			if sp.Rows != want || n != want {
				t.Errorf("span records %d rows, the client read %d; want %d", sp.Rows, n, want)
			}
			if got := sp.Start + sp.Dur; got != int64(end) {
				t.Errorf("span ends at %d ns, want %d: where the scan ended, not a later call", got, int64(end))
			}
			if d := sp.Deltas[sim.CtrRowsTransmitted]; d != want {
				t.Errorf("span counted %d rows transmitted, want %d", d, want)
			}
		})
	}
}
