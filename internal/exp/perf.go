package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// The perf-regression gate. CollectPerf profiles a fixed set of build
// scenarios on the virtual clock and condenses each profile into a flat
// metric map; BENCH_history.json accumulates those snapshots across commits,
// and cmd/perfgate compares the current run against the committed baseline
// with a per-metric tolerance band. Everything is virtual-time, so the gate
// is noise-free: a metric moves only when the simulated cost actually moves.

// PerfSnapshot is one scenario's condensed profile.
type PerfSnapshot struct {
	Scenario string           `json:"scenario"`
	Metrics  map[string]int64 `json:"metrics"`
}

// PerfEntry is one recorded run of all scenarios.
type PerfEntry struct {
	Seq       int            `json:"seq"`
	Scale     float64        `json:"scale"`
	Snapshots []PerfSnapshot `json:"snapshots"`
}

// PerfHistory is the cumulative BENCH_history.json document.
type PerfHistory struct {
	Entries []PerfEntry `json:"entries"`
}

// perfScenario is one gated configuration: by default a tree build driven
// through BuildTree, or an arbitrary drive when run is set.
type perfScenario struct {
	name string
	gen  func(scale float64) (*data.Dataset, error)
	cfg  func(ds *data.Dataset) mw.Config
	opt  func(ds *data.Dataset) dtree.Options
	// run, when non-nil, replaces the default BuildTree drive; it must
	// route all simulated work through an engine attached to env so the
	// profile sees exactly one proc.
	run func(env *Env, ds *data.Dataset) error
}

func perfScenarios() []perfScenario {
	census := func(scale float64) (*data.Dataset, error) {
		return censusData(datagen.CensusConfig{Rows: scaled(8000, scale), Seed: 61})
	}
	shallow := func(ds *data.Dataset) dtree.Options {
		return dtree.Options{MaxDepth: 6, MinRows: int64(ds.N() / 100)}
	}
	return []perfScenario{
		{
			name: "scan-seq",
			gen:  census,
			cfg: func(*data.Dataset) mw.Config {
				return mw.Config{Workers: 1, Staging: mw.StageNone}
			},
			opt: shallow,
		},
		{
			name: "staged-parallel",
			gen:  census,
			cfg: func(ds *data.Dataset) mw.Config {
				return mw.Config{Workers: 4, Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 2}
			},
			opt: shallow,
		},
		{
			name: "fallback",
			gen: func(scale float64) (*data.Dataset, error) {
				return censusData(datagen.CensusConfig{Rows: scaled(3000, scale), Seed: 62})
			},
			// A budget under two CC entries pushes every node to the SQL
			// fallback, gating the fallback arms' cost.
			cfg: func(*data.Dataset) mw.Config {
				return mw.Config{Workers: 4, Memory: 64, Staging: mw.StageNone}
			},
			opt: func(*data.Dataset) dtree.Options { return dtree.Options{MaxDepth: 3, MinRows: 40} },
		},
		{
			name: "columnar-clustered",
			gen: func(scale float64) (*data.Dataset, error) {
				return clusteredData(datagen.ClusteredConfig{
					Rows: scaled(8000, scale), Seed: 63, Regions: 6, Attrs: 7,
				})
			},
			cfg: func(*data.Dataset) mw.Config {
				return mw.Config{Workers: 4, Staging: mw.StageNone}
			},
			opt: shallow,
		},
		{
			name: "score-batch",
			gen: func(scale float64) (*data.Dataset, error) {
				return censusData(datagen.CensusConfig{Rows: scaled(16000, scale), Seed: 64})
			},
			// The vectorized in-engine scoring operator at four workers:
			// gates the scoring kernel's block/probe cost shape the same way
			// the build scenarios gate the counting pipeline.
			run: func(env *Env, ds *data.Dataset) error {
				tree, err := dtree.BuildInMemory(ds, dtree.Options{MaxDepth: 6})
				if err != nil {
					return err
				}
				model, err := dtree.Compile(tree, "score")
				if err != nil {
					return err
				}
				meter := sim.NewDefaultMeter()
				eng := engine.New(meter, 0)
				if _, err := engine.NewServer(eng, "cases", ds); err != nil {
					return err
				}
				env.attach(meter, eng)
				if err := eng.RegisterModel(model); err != nil {
					return err
				}
				tbl, err := eng.Table("cases")
				if err != nil {
					return err
				}
				_, err = eng.ScoreTable(tbl, model, 4)
				return err
			},
		},
	}
}

// CollectPerf profiles every gate scenario at the given scale and returns the
// snapshots plus the combined explain report (the per-scenario profile text).
// Fully deterministic: same scale, same bytes.
func CollectPerf(scale float64) ([]PerfSnapshot, string, error) {
	var snaps []PerfSnapshot
	var report strings.Builder
	for _, sc := range perfScenarios() {
		ds, err := sc.gen(scale)
		if err != nil {
			return nil, "", fmt.Errorf("perf %s: generate: %w", sc.name, err)
		}
		col := obs.NewTrace()
		env := &Env{Obs: col, Label: "perf-" + sc.name}
		if sc.run != nil {
			if err := sc.run(env, ds); err != nil {
				return nil, "", fmt.Errorf("perf %s: run: %w", sc.name, err)
			}
		} else if _, err := BuildTree(env, ds, sc.cfg(ds), sc.opt(ds)); err != nil {
			return nil, "", fmt.Errorf("perf %s: build: %w", sc.name, err)
		}
		p := profile.Compute(col)
		if len(p.Procs) != 1 {
			return nil, "", fmt.Errorf("perf %s: profiled %d procs, want 1", sc.name, len(p.Procs))
		}
		snaps = append(snaps, PerfSnapshot{Scenario: sc.name, Metrics: perfMetrics(p.Procs[0])})
		fmt.Fprintf(&report, "### perf scenario %s (scale %g)\n\n", sc.name, scale)
		if err := p.WriteText(&report); err != nil {
			return nil, "", err
		}
		report.WriteString("\n")
	}
	return snaps, report.String(), nil
}

// perfMetrics flattens one profiled proc into the gated metric map:
// total_ns, spans, excl_ns/<category> and ctr/<counter>.
func perfMetrics(proc *profile.Proc) map[string]int64 {
	m := map[string]int64{
		"total_ns": proc.TotalNS,
		"spans":    int64(proc.Spans),
	}
	for _, r := range proc.ByCat {
		m["excl_ns/"+r.Key] = r.ExclNS
	}
	keys := make([]string, 0, len(proc.Counters))
	for k := range proc.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m["ctr/"+k] = proc.Counters[k]
	}
	return m
}

// LoadPerfHistory reads the history file; a missing file is an empty history,
// not an error.
func LoadPerfHistory(path string) (*PerfHistory, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &PerfHistory{}, nil
	}
	if err != nil {
		return nil, err
	}
	h := &PerfHistory{}
	if err := json.Unmarshal(b, h); err != nil {
		return nil, fmt.Errorf("perf history %s: %w", path, err)
	}
	return h, nil
}

// Save writes the history as indented JSON.
func (h *PerfHistory) Save(path string) error {
	b, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Baseline returns the most recent entry recorded at the given scale, or nil.
func (h *PerfHistory) Baseline(scale float64) *PerfEntry {
	for i := len(h.Entries) - 1; i >= 0; i-- {
		if h.Entries[i].Scale == scale {
			return &h.Entries[i]
		}
	}
	return nil
}

// Append records a new entry with the next sequence number.
func (h *PerfHistory) Append(scale float64, snaps []PerfSnapshot) {
	seq := 0
	for _, e := range h.Entries {
		if e.Seq > seq {
			seq = e.Seq
		}
	}
	h.Entries = append(h.Entries, PerfEntry{Seq: seq + 1, Scale: scale, Snapshots: snaps})
}

// Absolute allowances backing the relative tolerance band. A zero-valued
// baseline metric (a counter the workload never hits, a category with no
// exclusive time) admits no relative slack at all — base*(1+tol) is still
// zero — so any nonzero current value would gate. Instead every metric gets
// an absolute-delta floor: time-like metrics may drift by a virtual
// millisecond, counts by a handful, before the relative band takes over.
const (
	perfAbsNSAllowance    = 1_000_000 // ns-valued metrics (total_ns, excl_ns/*)
	perfAbsCountAllowance = 8         // count-valued metrics (spans, ctr/*)
)

// perfAllowance returns the gate allowance for one metric: the larger of the
// relative band and the metric's absolute-delta floor.
func perfAllowance(metric string, baseline int64, tol float64) int64 {
	allow := int64(float64(baseline) * tol)
	abs := int64(perfAbsCountAllowance)
	if metric == "total_ns" || strings.HasPrefix(metric, "excl_ns/") {
		abs = perfAbsNSAllowance
	}
	if allow < abs {
		allow = abs
	}
	return allow
}

// ComparePerf checks the current snapshots against a baseline with a relative
// tolerance band and returns one message per regression (empty = pass). A
// scenario or metric present in the baseline but missing now, or a metric
// grown past base + max(base*tol, absolute floor), count as regressions; the
// absolute floor makes zero baselines an absolute-delta comparison instead of
// an unconditional failure. Metrics the baseline does not know are ignored —
// adding instrumentation must not fail the gate until re-baselined.
func ComparePerf(base, cur []PerfSnapshot, tol float64) []string {
	curBy := map[string]PerfSnapshot{}
	for _, s := range cur {
		curBy[s.Scenario] = s
	}
	var msgs []string
	for _, b := range base {
		c, ok := curBy[b.Scenario]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: scenario missing from current run", b.Scenario))
			continue
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv := b.Metrics[k]
			cv, ok := c.Metrics[k]
			if !ok {
				msgs = append(msgs, fmt.Sprintf("%s: metric %s missing from current run (baseline %d)", b.Scenario, k, bv))
				continue
			}
			limit := bv + perfAllowance(k, bv, tol)
			if cv > limit {
				msgs = append(msgs, fmt.Sprintf("%s: %s regressed: baseline %d, now %d (limit %d at tol %g)",
					b.Scenario, k, bv, cv, limit, tol))
			}
		}
	}
	return msgs
}
