package mw

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Clustered-workload equivalence and lane-imbalance coverage: the clustered
// dataset places every row of a region in one contiguous slab of row groups,
// the adversarial input for partitioned scans. Group-weighted splits are on by
// default, so these tests pin that weighted boundaries change lane timing
// only — CC tables, traces and counters stay byte-identical across worker
// counts per policy, and identical between policies for everything except
// the clock.

const (
	clusteredTestRows    = 20000 // five row groups: up to five lanes really split
	clusteredTestRegions = 4
)

func clusteredDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := datagen.GenerateClustered(datagen.ClusteredConfig{
		Rows: clusteredTestRows, Seed: 3, Regions: clusteredTestRegions, Attrs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// driveClustered runs the skew protocol — root, then one region-selective
// request per region, one per batch — and returns a fingerprint of every CC
// table (plus counters and clock when withMeter is set). The same four
// configurations as the random-data suite exercise the server-scan, keyset,
// TID-join and SQL-fallback paths, now under clustered placement.
func driveClustered(t *testing.T, cfg Config, withMeter bool) string {
	t.Helper()
	ds := clusteredDataset(t)
	cfg.MaxBatch = 1
	m, _ := newMW(t, ds, cfg)

	var sb strings.Builder
	drain := func() {
		for m.Pending() > 0 {
			results, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			if len(results) == 0 {
				t.Fatal("pending requests but Step produced no results")
			}
			sort.Slice(results, func(i, j int) bool { return results[i].Req.NodeID < results[j].Req.NodeID })
			for _, r := range results {
				fmt.Fprintf(&sb, "node %d src=%s sql=%v rows=%d cc=%s\n",
					r.Req.NodeID, r.Source, r.ViaSQL, r.CC.Rows(), r.CC.String())
			}
		}
	}

	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	drain()
	for v := 0; v < clusteredTestRegions; v++ {
		val := data.Value(v)
		err := m.Enqueue(&Request{
			NodeID: 1 + v, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: val}},
			Attrs: []int{1, 2, 3},
			Rows:  countWhere(ds, func(r data.Row) bool { return r[0] == val }),
			EstCC: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	m.CloseNode(0)
	drain()
	for v := 0; v < clusteredTestRegions; v++ {
		m.CloseNode(1 + v)
	}
	if withMeter {
		fmt.Fprintf(&sb, "clock %d\nmeter %s\n", m.Meter().Now(), m.Meter().String())
	}
	return sb.String()
}

// clusteredConfigs covers every partitioned source under histogram splits:
// the plain server scan, the keyset and TID-join access paths, and the
// SQL-fallback arms (budget below every estimate).
func clusteredConfigs() map[string]Config {
	return map[string]Config{
		"server-scan": {Staging: StageNone},
		"keyset":      {Staging: StageNone, Access: AccessKeyset, AuxThreshold: 0.9},
		"tid-join":    {Staging: StageNone, Access: AccessTIDJoin, AuxThreshold: 0.9},
		"fallback":    {Staging: StageNone, Memory: 480},
	}
}

// TestClusteredHistogramMatchesSequential: under histogram-guided splits on
// the clustered workload, every client-observable output at Workers ∈
// {2, 4, 8} equals the sequential run, for all four partitioned sources.
func TestClusteredHistogramMatchesSequential(t *testing.T) {
	for name, cfg := range clusteredConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			base := cfg
			base.Workers = 1
			want := driveClustered(t, base, false)
			for _, w := range []int{2, 4, 8} {
				c := cfg
				c.Workers = w
				if got := driveClustered(t, c, false); got != want {
					t.Errorf("workers=%d: output differs from sequential\n got:\n%s\nwant:\n%s", w, got, want)
				}
			}
		})
	}
}

// TestClusteredHistogramDeterministicAcrossRuns: clustered runs at Workers=8
// — clock and counters included — are byte-identical across reruns and
// GOMAXPROCS settings, with histogram splits engaged.
func TestClusteredHistogramDeterministicAcrossRuns(t *testing.T) {
	for name, cfg := range clusteredConfigs() {
		cfg := cfg
		cfg.Workers = 8
		t.Run(name, func(t *testing.T) {
			var prints []string
			for _, procs := range []int{1, runtime.NumCPU()} {
				old := runtime.GOMAXPROCS(procs)
				prints = append(prints, driveClustered(t, cfg, true), driveClustered(t, cfg, true))
				runtime.GOMAXPROCS(old)
			}
			for i := 1; i < len(prints); i++ {
				if prints[i] != prints[0] {
					t.Fatalf("run %d differs from run 0:\n got:\n%s\nwant:\n%s", i, prints[i], prints[0])
				}
			}
		})
	}
}

// skewImbalance drives one region-selective batch at 8 workers over a larger
// clustered table — 32 row groups, four per equal-width lane, the region a slab
// of eight — and returns the worst per-batch lane imbalance plus the
// fingerprint of the region's CC table.
func skewImbalance(t *testing.T, noHints bool) (int64, string) {
	t.Helper()
	ds, err := datagen.GenerateClustered(datagen.ClusteredConfig{
		Rows: 32 * 4096, Seed: 3, Regions: 4, Attrs: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace()
	eng.SetTracer(trace.Proc("skew", meter))
	m, err := New(srv, Config{
		Staging: StageNone, Workers: 8, MaxBatch: 1,
		NoHistogramHints: noHints, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if err := m.Enqueue(rootRequest(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	attrs := make([]int, ds.Schema.NumAttrs()-1)
	for i := range attrs {
		attrs[i] = i + 1
	}
	if err := m.Enqueue(&Request{
		NodeID: 1, ParentID: 0,
		Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
		Attrs: attrs,
		Rows:  countWhere(ds, func(r data.Row) bool { return r[0] == 1 }),
		EstCC: 200,
	}); err != nil {
		t.Fatal(err)
	}
	m.CloseNode(0)
	// Capture the imbalance of the region batch alone: the root batch's
	// match-all scan is balanced under either policy.
	nbatches := len(BatchRecords(trace))
	results, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("expected one region result, got %d", len(results))
	}
	fp := results[0].CC.String()
	m.CloseNode(1)
	var worst int64
	for _, b := range BatchRecords(trace)[nbatches:] {
		worst = max(worst, b.LaneImbalanceNS())
	}
	return worst, fp
}

// TestClusteredLaneImbalanceRegression: on the clustered table with a
// region-selective filter at 8 workers, group-weighted splits must cut the
// worst lane imbalance to at most half of the equal-width policy's, with
// identical counts. The equal-width arm doubles as coverage that the
// NoHistogramHints ablation still passes the whole pipeline.
func TestClusteredLaneImbalanceRegression(t *testing.T) {
	eqImb, eqFP := skewImbalance(t, true)
	histImb, histFP := skewImbalance(t, false)
	if eqFP != histFP {
		t.Fatalf("split policy changed the region's CC table:\n eq:   %s\n hist: %s", eqFP, histFP)
	}
	if eqImb <= 0 {
		t.Fatal("equal-width run shows no lane imbalance on the skewed batch")
	}
	if histImb*2 > eqImb {
		t.Errorf("histogram imbalance %d ns not <= 50%% of equal-width %d ns", histImb, eqImb)
	}
}
