package exp

import (
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/mw"
)

// Ablation experiments: each disables one of the middleware's design
// choices (DESIGN.md) to quantify its contribution. They are not paper
// figures — the paper argues for these choices qualitatively — but they
// regenerate the argument as data.

// AblationFilterPushdown measures §4.3.1's filter expressions: with the
// ablation every scan ships the entire table, so cost stops tracking the
// shrinking active set.
func AblationFilterPushdown(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "abl-pushdown",
		Title:  "Ablation: filter expressions pushed into the server WHERE clause",
		XLabel: "rows",
		YLabel: "virtual seconds",
		PaperShape: "§4.3.1: the filter 'ensures that only data relevant to the nodes are " +
			"transmitted'; without it every scan ships the whole table",
		Series: []Series{{Name: "pushdown (paper)"}, {Name: "no pushdown"}},
	}
	for _, cases := range []int{60, 120, 240} {
		ds, err := fig45Data(scale, cases, 61)
		if err != nil {
			return nil, err
		}
		x := float64(ds.N())
		on, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		off, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, NoFilterPushdown: true}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: on.Seconds, Counters: on.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: x, Seconds: off.Seconds, Counters: off.Counters})
	}
	return e, nil
}

// AblationBatching measures §4.1.1's multi-node single-scan counting: with a
// batch size of one, every active node costs its own scan, which is the
// regime the per-node SQL strawman also suffers from.
func AblationBatching(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "abl-batching",
		Title:  "Ablation: batching multiple nodes into one scan",
		XLabel: "rows",
		YLabel: "virtual seconds",
		PaperShape: "§4.1.1: counts tables for multiple active nodes are built in a single " +
			"data scan; one scan per node forfeits the core optimization",
		Series: []Series{{Name: "batched (paper)"}, {Name: "one node per scan"}},
	}
	for _, cases := range []int{60, 120, 240} {
		ds, err := fig45Data(scale, cases, 62)
		if err != nil {
			return nil, err
		}
		x := float64(ds.N())
		on, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		off, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, MaxBatch: 1}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: on.Seconds, Counters: on.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: x, Seconds: off.Seconds, Counters: off.Counters})
	}
	return e, nil
}

// AblationRule3 measures the scheduler's smallest-estimate-first admission
// (Rule 3) under a constrained memory budget, against FIFO admission. The
// paper adopts Rule 3 "for simplicity", not as a performance claim, and the
// measurement confirms the choice is about determinism and maximal packing
// rather than speed: both orders land within a few percent.
func AblationRule3(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "abl-rule3",
		Title:  "Ablation: Rule 3 (admit smallest estimated counts tables first)",
		XLabel: "memory (KB)",
		YLabel: "virtual seconds",
		PaperShape: "the paper orders eligible nodes by increasing estimated size 'for " +
			"simplicity'; expect parity with FIFO (Rule 3 buys deterministic maximal packing, not speed)",
		Series: []Series{{Name: "rule 3 (paper)"}, {Name: "fifo"}},
	}
	// A lop-sided tree mixes one large active node with many small ones at
	// every level, the regime where admission order matters.
	cfg := datagen.TreeGenConfig{
		Leaves: scaled(40, scale), Attrs: 20, Values: 4, ValuesStdDev: 2,
		Classes: 8, CasesPerLeaf: 150, Skew: 0.9, Seed: 63,
	}
	ds, err := treeData(cfg)
	if err != nil {
		return nil, err
	}
	opt := dtree.Options{}
	for _, kb := range []int64{24, 48, 96, 192} {
		on, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Memory: kb << 10}, opt)
		if err != nil {
			return nil, err
		}
		off, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Memory: kb << 10, FIFOScheduling: true}, opt)
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: float64(kb), Seconds: on.Seconds, Counters: on.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: float64(kb), Seconds: off.Seconds, Counters: off.Counters})
	}
	return e, nil
}
