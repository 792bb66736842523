package dtree

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tracedMiddleware serves ds through a middleware whose spans go to the
// returned trace.
func tracedMiddleware(t *testing.T, ds *data.Dataset) (*mw.Middleware, *obs.Trace) {
	t.Helper()
	col, meter := obs.NewTrace(), sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	eng.SetTracer(col.Proc("build", meter))
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, col
}

// buildSpans returns the trace's dtree-build spans and how many of its spans
// never ended.
func buildSpans(col *obs.Trace) (builds, open int) {
	col.EachProc(func(p obs.ProcView) {
		for _, sp := range p.Spans {
			if sp.Name == "dtree-build" {
				builds++
			}
			if sp.Deltas == nil {
				open++
			}
		}
	})
	return builds, open
}

// TestBuilderErrorContract pins what a Builder leaves open after an error:
// an error from NewBuilder leaves nothing, and after an error from Feed one
// Abort ends the build span.
func TestBuilderErrorContract(t *testing.T) {
	ds := xorDataset(400)
	t.Run("NewBuilder", func(t *testing.T) {
		m, col := tracedMiddleware(t, ds)
		if err := m.Enqueue(&mw.Request{NodeID: 0, ParentID: -1, Attrs: []int{0, 1}, Rows: int64(ds.N())}); err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilder(m, Options{})
		if b != nil || err == nil || !strings.Contains(err.Error(), "duplicate node id 0") {
			t.Fatalf("NewBuilder over a pending node 0 = %v, %v; want the duplicate-id error", b, err)
		}
		if builds, open := buildSpans(col); builds != 1 || open != 0 {
			t.Errorf("after NewBuilder's error: %d dtree-build spans, %d open; want 1 and 0", builds, open)
		}
	})
	t.Run("Feed", func(t *testing.T) {
		m, col := tracedMiddleware(t, ds)
		b, err := NewBuilder(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Feed(nil); err == nil || !strings.Contains(err.Error(), "no progress with 1 pending") {
			t.Fatalf("Feed(nil) with the root pending = %v, want the no-progress error", err)
		}
		b.Abort()
		if builds, open := buildSpans(col); builds != 1 || open != 0 {
			t.Errorf("after Feed's error and Abort: %d dtree-build spans, %d open; want 1 and 0", builds, open)
		}
	})
}
