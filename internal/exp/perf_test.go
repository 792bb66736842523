package exp

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCollectPerfDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled builds take a moment")
	}
	snaps1, rep1, err := CollectPerf(0.1)
	if err != nil {
		t.Fatal(err)
	}
	snaps2, rep2, err := CollectPerf(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps1, snaps2) {
		t.Error("snapshots differ across reruns")
	}
	if rep1 != rep2 {
		t.Error("explain report differs across reruns")
	}
	if len(snaps1) != len(perfScenarios()) {
		t.Fatalf("got %d snapshots, want %d", len(snaps1), len(perfScenarios()))
	}
	for _, s := range snaps1 {
		if s.Metrics["total_ns"] <= 0 {
			t.Errorf("%s: total_ns = %d, want > 0", s.Scenario, s.Metrics["total_ns"])
		}
		if s.Metrics["spans"] <= 0 {
			t.Errorf("%s: spans = %d, want > 0", s.Scenario, s.Metrics["spans"])
		}
	}
	// The fallback scenario gates the fallback arms, not scans.
	for _, s := range snaps1 {
		if s.Scenario != "fallback" {
			continue
		}
		if _, ok := s.Metrics["excl_ns/fallback"]; !ok {
			t.Error("fallback scenario has no excl_ns/fallback metric")
		}
	}
	if !strings.Contains(rep1, "perf scenario scan-seq") {
		t.Error("report missing scenario header")
	}
}

func clonePerf(snaps []PerfSnapshot) []PerfSnapshot {
	out := make([]PerfSnapshot, len(snaps))
	for i, s := range snaps {
		m := make(map[string]int64, len(s.Metrics))
		for k, v := range s.Metrics { //repolint:ordered map-to-map copy
			m[k] = v
		}
		out[i] = PerfSnapshot{Scenario: s.Scenario, Metrics: m}
	}
	return out
}

func TestComparePerf(t *testing.T) {
	base := []PerfSnapshot{
		{Scenario: "a", Metrics: map[string]int64{"total_ns": 1_000_000_000, "spans": 40, "zero": 0}},
		{Scenario: "b", Metrics: map[string]int64{"total_ns": 500_000_000}},
	}

	if msgs := ComparePerf(base, clonePerf(base), 0.10); len(msgs) != 0 {
		t.Errorf("identical run flagged: %v", msgs)
	}

	// Tolerance boundary at 10%: values up to the exact limit pass, one past
	// it fails.
	for _, tc := range []struct {
		v    int64
		pass bool
	}{{1_099_000_000, true}, {1_100_000_000, true}, {1_100_000_001, false}} {
		cur := clonePerf(base)
		cur[0].Metrics["total_ns"] = tc.v
		msgs := ComparePerf(base, cur, 0.10)
		if tc.pass && len(msgs) != 0 {
			t.Errorf("total_ns=%d should pass at tol 0.10: %v", tc.v, msgs)
		}
		if !tc.pass && len(msgs) == 0 {
			t.Errorf("total_ns=%d should fail at tol 0.10", tc.v)
		}
	}

	// The acceptance negative test: a 20% regression must be caught.
	cur := clonePerf(base)
	cur[1].Metrics["total_ns"] = 600_000_000
	if msgs := ComparePerf(base, cur, 0.10); len(msgs) != 1 || !strings.Contains(msgs[0], "regressed") {
		t.Errorf("20%% regression not caught: %v", msgs)
	}

	// Missing scenario and missing metric.
	if msgs := ComparePerf(base, clonePerf(base)[:1], 0.10); len(msgs) != 1 || !strings.Contains(msgs[0], "scenario missing") {
		t.Errorf("missing scenario not caught: %v", msgs)
	}
	cur = clonePerf(base)
	delete(cur[0].Metrics, "spans")
	if msgs := ComparePerf(base, cur, 0.10); len(msgs) != 1 || !strings.Contains(msgs[0], "metric spans missing") {
		t.Errorf("missing metric not caught: %v", msgs)
	}

	// A zero baseline is an absolute-delta comparison: drift within the
	// count floor passes, growth past it gates.
	cur = clonePerf(base)
	cur[0].Metrics["zero"] = perfAbsCountAllowance
	if msgs := ComparePerf(base, cur, 0.10); len(msgs) != 0 {
		t.Errorf("zero baseline within absolute floor flagged: %v", msgs)
	}
	cur = clonePerf(base)
	cur[0].Metrics["zero"] = perfAbsCountAllowance + 1
	if msgs := ComparePerf(base, cur, 0.10); len(msgs) != 1 || !strings.Contains(msgs[0], "regressed") {
		t.Errorf("zero-baseline growth past floor not caught: %v", msgs)
	}

	// Metrics unknown to the baseline are ignored (new instrumentation).
	cur = clonePerf(base)
	cur[0].Metrics["brand_new"] = 123
	if msgs := ComparePerf(base, cur, 0.10); len(msgs) != 0 {
		t.Errorf("new metric flagged: %v", msgs)
	}

	// Improvements pass.
	cur = clonePerf(base)
	cur[0].Metrics["total_ns"] = 700
	if msgs := ComparePerf(base, cur, 0.10); len(msgs) != 0 {
		t.Errorf("improvement flagged: %v", msgs)
	}
}

// The zero-baseline regression test for the perfgate fix: ns-valued and
// count-valued metrics each get their own absolute floor, and small nonzero
// baselines keep the floor too (2→3 on a counter is noise, not a 50%
// regression).
func TestComparePerfZeroBaselineAbsoluteDelta(t *testing.T) {
	base := []PerfSnapshot{{Scenario: "s", Metrics: map[string]int64{
		"ctr/col_groups_skipped": 0,
		"excl_ns/scan":           0,
		"ctr/sql_fallbacks":      2,
	}}}

	cur := []PerfSnapshot{{Scenario: "s", Metrics: map[string]int64{
		"ctr/col_groups_skipped": perfAbsCountAllowance,
		"excl_ns/scan":           perfAbsNSAllowance,
		"ctr/sql_fallbacks":      2 + perfAbsCountAllowance,
	}}}
	if msgs := ComparePerf(base, cur, 0.10); len(msgs) != 0 {
		t.Fatalf("drift within absolute floors flagged: %v", msgs)
	}

	cur = []PerfSnapshot{{Scenario: "s", Metrics: map[string]int64{
		"ctr/col_groups_skipped": perfAbsCountAllowance + 1,
		"excl_ns/scan":           perfAbsNSAllowance + 1,
		"ctr/sql_fallbacks":      2,
	}}}
	msgs := ComparePerf(base, cur, 0.10)
	if len(msgs) != 2 {
		t.Fatalf("growth past absolute floors: got %v, want 2 regressions", msgs)
	}
}

func TestPerfHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.json")

	h, err := LoadPerfHistory(path)
	if err != nil {
		t.Fatalf("missing file should load as empty: %v", err)
	}
	if len(h.Entries) != 0 {
		t.Fatalf("empty history has %d entries", len(h.Entries))
	}
	if h.Baseline(0.25) != nil {
		t.Error("empty history has a baseline")
	}

	snapsA := []PerfSnapshot{{Scenario: "a", Metrics: map[string]int64{"total_ns": 10}}}
	snapsB := []PerfSnapshot{{Scenario: "a", Metrics: map[string]int64{"total_ns": 20}}}
	h.Append(0.25, snapsA)
	h.Append(1.0, snapsB)
	h.Append(0.25, snapsB)
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadPerfHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(got.Entries))
	}
	if got.Entries[0].Seq != 1 || got.Entries[1].Seq != 2 || got.Entries[2].Seq != 3 {
		t.Errorf("sequence numbers %d,%d,%d", got.Entries[0].Seq, got.Entries[1].Seq, got.Entries[2].Seq)
	}
	b := got.Baseline(0.25)
	if b == nil || b.Seq != 3 {
		t.Fatalf("baseline at 0.25 = %+v, want seq 3 (latest wins)", b)
	}
	if b.Snapshots[0].Metrics["total_ns"] != 20 {
		t.Errorf("baseline metrics = %v", b.Snapshots[0].Metrics)
	}
	if got.Baseline(0.5) != nil {
		t.Error("baseline for unrecorded scale")
	}
}
