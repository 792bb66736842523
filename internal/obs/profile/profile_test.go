package profile

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// scenario is one profiled build configuration. The set deliberately covers
// the edge shapes the profiler must attribute exactly: unstaged scans,
// staging, fallback-only builds, nested aux-structure spans, and the columnar
// scan path.
type scenario struct {
	name string
	cfg  func(ds *data.Dataset) mw.Config
	data func(t *testing.T) *data.Dataset
	opt  dtree.Options
}

func censusData(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 2500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func clusteredData(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := datagen.GenerateClustered(datagen.ClusteredConfig{Rows: 2500, Seed: 17, Regions: 6, Attrs: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func scenarios() []scenario {
	shallow := dtree.Options{MaxDepth: 4, MinRows: 40}
	return []scenario{
		{
			name: "workers1-nostage",
			cfg:  func(*data.Dataset) mw.Config { return mw.Config{Staging: mw.StageNone} },
			data: censusData,
			opt:  shallow,
		},
		{
			name: "staged",
			cfg: func(ds *data.Dataset) mw.Config {
				return mw.Config{Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 2}
			},
			data: censusData,
			opt:  shallow,
		},
		{
			name: "fallback-only",
			// A memory budget below every node's estimate (under two CC
			// entries) pushes every request to the SQL fallback: no scan
			// spans, only fallback arms.
			cfg:  func(*data.Dataset) mw.Config { return mw.Config{Memory: 64, Staging: mw.StageNone} },
			data: censusData,
			opt:  dtree.Options{MaxDepth: 3, MinRows: 40},
		},
		{
			name: "keyset-aux",
			// A high threshold triggers the §4.3.3 auxiliary builds, nesting
			// aux spans inside the batch pipeline.
			cfg: func(*data.Dataset) mw.Config {
				return mw.Config{Access: mw.AccessKeyset, AuxThreshold: 0.6, Staging: mw.StageNone}
			},
			data: censusData,
			opt:  shallow,
		},
		{
			name: "columnar-clustered",
			cfg:  func(*data.Dataset) mw.Config { return mw.Config{Staging: mw.StageNone} },
			data: clusteredData,
			opt:  shallow,
		},
	}
}

// buildProfiled runs one instrumented tree build and returns the collector,
// the final virtual clock, and the meter's final counter vector (snapshotted
// before Close so teardown charges don't blur the comparison).
func buildProfiled(t *testing.T, sc scenario) (*obs.Trace, int64, sim.CounterVec) {
	t.Helper()
	ds := sc.data(t)
	col := obs.NewTrace()
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTracer(col.Proc("test-"+sc.name, meter))
	m, err := mw.New(srv, sc.cfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtree.Build(m, sc.opt); err != nil {
		m.Close()
		t.Fatalf("%s: build: %v", sc.name, err)
	}
	total := int64(meter.Now())
	counts := meter.CounterVec()
	m.Close()
	return col, total, counts
}

func eachNode(roots []*Node, fn func(*Node)) {
	for _, r := range roots {
		fn(r)
		eachNode(r.Children, fn)
	}
}

// TestAttributionSumsToTotal is the profiler's conservation property: over
// every scenario shape, exclusive virtual times sum exactly to the build's
// total virtual time (nothing double-counted, nothing dropped), and exclusive
// counter deltas sum exactly to the root spans' inclusive deltas.
func TestAttributionSumsToTotal(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			col, meterNS, meterCounts := buildProfiled(t, sc)
			p := Compute(col)
			if len(p.Procs) != 1 {
				t.Fatalf("procs = %d, want 1", len(p.Procs))
			}
			proc := p.Procs[0]
			if proc.Spans == 0 {
				t.Fatal("no spans profiled")
			}
			if proc.TotalNS != meterNS {
				t.Errorf("TotalNS = %d, meter = %d", proc.TotalNS, meterNS)
			}
			if proc.AttributedNS+proc.UnattributedNS != proc.TotalNS {
				t.Errorf("attributed %d + unattributed %d != total %d",
					proc.AttributedNS, proc.UnattributedNS, proc.TotalNS)
			}
			var sumExcl int64
			var exclCounts, rootIncl sim.CounterVec
			nodes := 0
			eachNode(proc.Roots, func(n *Node) {
				nodes++
				if n.ExclNS < 0 {
					t.Errorf("span %d %s/%s: negative exclusive time %d", n.ID, n.Cat, n.Name, n.ExclNS)
				}
				if n.InclNS < n.ExclNS {
					t.Errorf("span %d %s/%s: excl %d > incl %d", n.ID, n.Cat, n.Name, n.ExclNS, n.InclNS)
				}
				sumExcl += n.ExclNS
				exclCounts.Add(&n.exclVec)
			})
			if nodes != proc.Spans {
				t.Errorf("forest has %d nodes, proc.Spans = %d", nodes, proc.Spans)
			}
			if sumExcl != proc.AttributedNS {
				t.Errorf("sum of exclusive times %d != AttributedNS %d", sumExcl, proc.AttributedNS)
			}
			for _, r := range proc.Roots {
				rootIncl.Add(&r.inclVec)
			}
			if exclCounts != rootIncl {
				t.Errorf("exclusive counter deltas do not sum to the roots' inclusive deltas:\n  excl %v\n  incl %v",
					counterMap(&exclCounts), counterMap(&rootIncl))
			}
			// Spans can only observe counters the meter actually charged.
			exclCounts.EachNonZero(func(c sim.Counter, n int64) {
				if m := meterCounts.Get(c); n > m {
					t.Errorf("counter %s: attributed %d > meter total %d", c, n, m)
				}
			})
		})
	}
}

// TestOverlaysExcluded: the client-side level spans are overlay-only — they
// overlap by design and must not participate in attribution.
func TestOverlaysExcluded(t *testing.T) {
	col, _, _ := buildProfiled(t, scenarios()[0])
	p := Compute(col)
	proc := p.Procs[0]
	if len(proc.Overlays) == 0 {
		t.Fatal("no overlay spans: expected the dtree level view")
	}
	for _, o := range proc.Overlays {
		if o.Cat != obs.CatLevel {
			t.Errorf("overlay span %d has cat %q, want %q", o.ID, o.Cat, obs.CatLevel)
		}
	}
	if proc.Spans+proc.OverlaySpans != proc.Spans+len(proc.Overlays) {
		t.Errorf("overlay count mismatch: %d != %d", proc.OverlaySpans, len(proc.Overlays))
	}
	if len(proc.ByLevel) == 0 {
		t.Error("no per-level rollup: batch spans should carry the level attribute")
	}
}

// TestFallbackOnlyShape: with every request pushed to SQL, the profile still
// balances and the fallback category dominates the rollup.
func TestFallbackOnlyShape(t *testing.T) {
	col, _, _ := buildProfiled(t, scenarios()[2])
	p := Compute(col)
	proc := p.Procs[0]
	found := false
	for _, r := range proc.ByCat {
		if r.Key == obs.CatFallback {
			found = true
		}
		if r.Key == obs.CatScan {
			t.Error("fallback-only build produced scan spans")
		}
	}
	if !found {
		t.Error("no fallback category in the rollup")
	}
}

// TestReportDeterminism: the text report is byte-identical across GOMAXPROCS
// settings and across reruns of the same build.
func TestReportDeterminism(t *testing.T) {
	for _, sc := range []scenario{scenarios()[1], scenarios()[4]} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			render := func() string {
				col, _, _ := buildProfiled(t, sc)
				var txt bytes.Buffer
				if err := Compute(col).WriteText(&txt); err != nil {
					t.Fatal(err)
				}
				return txt.String()
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			runtime.GOMAXPROCS(1)
			txt1 := render()
			runtime.GOMAXPROCS(8)
			txt2 := render()
			txt3 := render()
			if txt1 != txt2 || txt1 != txt3 {
				t.Error("text report differs across GOMAXPROCS or reruns")
			}
			if txt1 == "" {
				t.Error("empty report")
			}
			// Each batch line is followed by the budget/residency attributes
			// the middleware put on the batch span.
			if !strings.Contains(txt1, "  open nodes server/file/memory ") {
				t.Error("report lacks the batch spans' budget/residency attributes")
			}
		})
	}
}

// TestEmptyAndDegenerateTraces: the profiler accepts nil and empty inputs.
func TestEmptyAndDegenerateTraces(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *obs.Trace
	}{
		{"nil-trace", nil},
		{"no-procs", obs.NewTrace()},
	} {
		p := Compute(tc.tr)
		if len(p.Procs) != 0 {
			t.Errorf("%s: got %d procs, want 0", tc.name, len(p.Procs))
		}
		var buf bytes.Buffer
		if err := p.WriteText(&buf); err != nil {
			t.Errorf("%s: WriteText: %v", tc.name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty text output", tc.name)
		}
	}
	// A registered proc with no spans still profiles cleanly.
	tr := obs.NewTrace()
	tr.Proc("idle", sim.NewDefaultMeter())
	p := Compute(tr)
	if len(p.Procs) != 1 {
		t.Fatalf("got %d procs, want 1", len(p.Procs))
	}
	if p.Procs[0].TotalNS != 0 || p.Procs[0].Spans != 0 {
		t.Errorf("idle proc: total %d spans %d, want 0/0", p.Procs[0].TotalNS, p.Procs[0].Spans)
	}
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestColumnarScanAttrs: the columnar scenario's scan spans carry the row
// group counters as span attributes.
func TestColumnarScanAttrs(t *testing.T) {
	col, _, _ := buildProfiled(t, scenarios()[4])
	p := Compute(col)
	proc := p.Procs[0]
	sawGroups := false
	eachNode(proc.Roots, func(n *Node) {
		if n.Cat != obs.CatScan {
			return
		}
		if obs.AttrInt(n.Attrs, "col_groups_scanned", -1) > 0 {
			sawGroups = true
		}
	})
	if !sawGroups {
		t.Error("no scan span carries col_groups_scanned > 0 on the columnar path")
	}
}

// TestSecsAndPctFormatting pins the integer-only renderers.
func TestSecsAndPctFormatting(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000000s"},
		{1_500, "0.000001s"},
		{999_999_999, "0.999999s"},
		{1_000_000_000, "1.000000s"},
		{12_345_678_901, "12.345678s"},
		{-2_000_001_000, "-2.000001s"},
	}
	for _, c := range cases {
		if got := secs(c.ns); got != c.want {
			t.Errorf("secs(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
	pcts := []struct {
		bp   int64
		want string
	}{
		{0, "0.00%"}, {1, "0.01%"}, {100, "1.00%"}, {9_999, "99.99%"}, {10_000, "100.00%"}, {-50, "-0.50%"},
	}
	for _, c := range pcts {
		if got := pct(c.bp); got != c.want {
			t.Errorf("pct(%d) = %q, want %q", c.bp, got, c.want)
		}
	}
	if got := pctBP(1, 3); got != 3333 {
		t.Errorf("pctBP(1,3) = %d, want 3333", got)
	}
	if got := pctBP(5, 0); got != 0 {
		t.Errorf("pctBP(5,0) = %d, want 0", got)
	}
}
