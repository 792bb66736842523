package mw

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/predicate"
)

// Clustered-workload equivalence: the clustered dataset places every row of a
// region in one contiguous slab of row groups, the adversarial input for a
// pass split into segments by group weight. These tests pin that the weighted
// segment boundaries change wall clock only — CC tables, counters and the
// clock stay byte-identical across GOMAXPROCS.

const (
	clusteredTestRows    = 40000 // ten row groups: a pass splits into up to two segments
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

// clusteredConfigs covers every server source a pass reads: the plain server
// scan, the keyset and TID-join access paths, and the SQL-fallback arms
// (budget below every estimate).
func clusteredConfigs() map[string]Config {
	return map[string]Config{
		"server-scan": {Staging: StageNone},
		"keyset":      {Staging: StageNone, Access: AccessKeyset, AuxThreshold: 0.9},
		"tid-join":    {Staging: StageNone, Access: AccessTIDJoin, AuxThreshold: 0.9},
		"fallback":    {Staging: StageNone, Memory: 480},
	}
}

// TestClusteredHistogramMatchesSequential: on the clustered workload, every
// client-observable output — meter included — at GOMAXPROCS 2 and 4, where
// passes split into group-weighted segments, equals GOMAXPROCS 1, for all
// four sources.
func TestClusteredHistogramMatchesSequential(t *testing.T) {
	for name, cfg := range clusteredConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			procsRuns(t, []int{2, 4}, func() string { return driveClustered(t, cfg, true) })
		})
	}
}

// TestClusteredHistogramDeterministicAcrossRuns: clustered runs — clock and
// counters included — are byte-identical across reruns and GOMAXPROCS
// settings, with group-weighted segment splits engaged.
func TestClusteredHistogramDeterministicAcrossRuns(t *testing.T) {
	for name, cfg := range clusteredConfigs() {
		cfg := cfg
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
