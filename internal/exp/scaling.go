package exp

import (
	"fmt"
	"strings"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
)

// buildTreeRules is BuildTree plus the grown tree's rule set, used to assert
// that a configuration change (here: the worker count) altered only the cost
// of the build, never its result.
func buildTreeRules(env *Env, ds *data.Dataset, mcfg mw.Config, opt dtree.Options) (BuildStats, string, error) {
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		return BuildStats{}, "", err
	}
	env.attach(meter, eng)
	m, err := mw.New(srv, mcfg)
	if err != nil {
		return BuildStats{}, "", err
	}
	defer m.Close()
	tree, err := dtree.Build(m, opt)
	if err != nil {
		return BuildStats{}, "", err
	}
	stats := BuildStats{
		Seconds:   meter.Now().Seconds(),
		TreeNodes: tree.NumNodes,
		Counters:  countersOf(meter),
	}
	return stats, strings.Join(tree.Rules(), "\n"), nil
}

// ScalingWorkers measures the parallel batched-scan pipeline: full
// census-workload tree builds at 1, 2, 4 and 8 scan workers, across four
// arms — no staging (every batch scans the server), full file+memory
// staging, a fallback-only arm (a CC budget below every estimate pushes each
// node to the SQL fallback, a UNION statement whose arms the server runs on
// lanes), and the keyset access path (partitioned keyset builds and
// re-scans). The deterministic parallel cost model should cut virtual build
// time as workers grow — scan-dominated phases divide across lanes while
// the serial fractions (cursor opens, shard merges) bound the speedup — and
// the grown tree must be identical at every worker count.
func ScalingWorkers(env *Env, scale float64) (*Experiment, error) {
	ds, err := censusData(datagen.CensusConfig{Rows: scaled(20000, scale), Seed: 7})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:     "scaling",
		Title:  "Parallel scan pipeline: build time vs workers",
		XLabel: "workers",
		YLabel: "virtual seconds",
		PaperShape: "virtual build time falls as scan workers are added (near-linear while " +
			"scans dominate, flattening as serial fractions take over); the tree itself " +
			"is identical at every worker count",
		Series: []Series{
			{Name: "no staging"},
			{Name: "file+memory"},
			{Name: "sql-fallback"},
			{Name: "keyset"},
		},
	}
	configs := []mw.Config{
		{Staging: mw.StageNone},
		{Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 2},
		// A budget below one CC entry admits nothing: every node is answered
		// by the SQL fallback, isolating the parallel GROUP BY arms.
		{Staging: mw.StageNone, Memory: cc.EntryBytes - 1},
		{Staging: mw.StageNone, Access: mw.AccessKeyset, AuxThreshold: 0.6},
	}
	for si, base := range configs {
		var refRules string
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := base
			cfg.Workers = workers
			stats, rules, err := buildTreeRules(env, ds, cfg, dtree.Options{})
			if err != nil {
				return nil, err
			}
			if workers == 1 {
				refRules = rules
			} else if rules != refRules {
				return nil, fmt.Errorf("exp scaling: %s: tree at %d workers differs from sequential build",
					e.Series[si].Name, workers)
			}
			e.Series[si].Points = append(e.Series[si].Points, Point{
				X: float64(workers), Seconds: stats.Seconds, Counters: stats.Counters,
			})
		}
	}
	return e, nil
}
