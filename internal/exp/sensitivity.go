package exp

import (
	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
)

// BuildTreeWithCosts is BuildTree under an explicit cost model, for the
// sensitivity analysis.
func BuildTreeWithCosts(env *Env, ds *data.Dataset, costs sim.Costs, mcfg mw.Config, opt dtree.Options) (BuildStats, error) {
	meter := sim.NewMeter(costs)
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		return BuildStats{}, err
	}
	env.attach(meter, eng)
	m, err := mw.New(srv, mcfg)
	if err != nil {
		return BuildStats{}, err
	}
	defer m.Close()
	tree, err := dtree.Build(m, opt)
	if err != nil {
		return BuildStats{}, err
	}
	return BuildStats{
		Seconds:   meter.Now().Seconds(),
		TreeNodes: tree.NumNodes,
		Counters:  countersOf(meter),
	}, nil
}

// costVariant is one perturbation of the calibrated model.
type costVariant struct {
	name  string
	apply func(*sim.Costs)
}

func costVariants() []costVariant {
	return []costVariant{
		{"base", func(*sim.Costs) {}},
		// Both wire prices: a batched scan ships blocks (ColRowTransmit), a
		// row-at-a-time stream and a statement's result rows (RowTransmit).
		{"transmit/2", func(c *sim.Costs) { c.RowTransmit /= 2; c.ColRowTransmit /= 2 }},
		{"transmit*2", func(c *sim.Costs) { c.RowTransmit *= 2; c.ColRowTransmit *= 2 }},
		{"fileio/2", func(c *sim.Costs) { c.FileRowRead /= 2; c.FileRowWrite /= 2 }},
		{"fileio*2", func(c *sim.Costs) { c.FileRowRead *= 2; c.FileRowWrite *= 2 }},
		{"pageio*2", func(c *sim.Costs) { c.ServerPageIO *= 2 }},
		{"sqlcpu/2", func(c *sim.Costs) { c.SQLAggRow /= 2; c.QueryStartup /= 2 }},
	}
}

// Sensitivity re-measures the headline comparisons (memory staging vs no
// staging; the middleware vs the per-node SQL strawman) under perturbed cost
// models. The reproduction's conclusions must not hinge on the exact
// calibration: staging must win and SQL counting must lose under every
// variant within a factor of two of the defaults.
func Sensitivity(env *Env, scale float64) (*Experiment, error) {
	ds, err := fig45Data(scale, 100, 71)
	if err != nil {
		return nil, err
	}
	memory := ds.Bytes() * 2
	e := &Experiment{
		ID:     "sensitivity",
		Title:  "Cost-model sensitivity: headline orderings under perturbed calibrations",
		XLabel: "cost model",
		YLabel: "virtual seconds",
		PaperShape: "orderings (staging < no staging; middleware << per-node SQL counting) hold for " +
			"every 2x perturbation of the calibrated costs",
		Series: []Series{{Name: "caching"}, {Name: "no caching"}, {Name: "sql counting"}},
	}
	// A smaller dataset for the SQL strawman keeps the suite fast.
	small, err := fig45Data(scale*0.3, 40, 71)
	if err != nil {
		return nil, err
	}
	for i, v := range costVariants() {
		costs := sim.DefaultCosts()
		v.apply(&costs)
		withC, err := BuildTreeWithCosts(env, ds, costs, mw.Config{Staging: mw.StageMemoryOnly, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		noC, err := BuildTreeWithCosts(env, ds, costs, mw.Config{Staging: mw.StageNone, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		sqlStats, err := sqlCountingWithCosts(small, costs)
		if err != nil {
			return nil, err
		}
		x := float64(i)
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Label: v.name, Seconds: withC.Seconds, Counters: withC.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: x, Label: v.name, Seconds: noC.Seconds, Counters: noC.Counters})
		e.Series[2].Points = append(e.Series[2].Points, Point{X: x, Label: v.name, Seconds: sqlStats, Counters: nil})
	}
	return e, nil
}

// sqlCountingWithCosts measures the per-node SQL strawman under a cost
// model on its own (smaller) input; the comparison of interest is its ratio
// to the middleware, checked by the sensitivity test.
func sqlCountingWithCosts(ds *data.Dataset, costs sim.Costs) (float64, error) {
	meter := sim.NewMeter(costs)
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		return 0, err
	}
	if _, err := baseline.SQLCounting(srv, dtree.Options{}); err != nil {
		return 0, err
	}
	return meter.Now().Seconds(), nil
}
