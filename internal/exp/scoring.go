package exp

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/sim"
)

// Scoring measures in-database batch scoring against the in-client row loop
// the paper's architecture implies for deployment: once a tree is built, the
// client either pulls every row through a full-width cursor and walks the
// tree itself, or ships the compiled model to the engine and lets a
// vectorized operator probe the columnar store, reading only the columns the
// model splits on. Both arms score the same table with the same tree on a
// fresh virtual clock. Reported per arm: virtual seconds, modeled server
// pages, and derived rows/sec.
func Scoring(env *Env, scale float64) (*Experiment, error) {
	// Large enough that even a -scale 0.25 run spans several sealed columnar
	// row groups (4096 rows each).
	ds, err := censusData(datagen.CensusConfig{Rows: scaled(64000, scale), Seed: 7})
	if err != nil {
		return nil, err
	}
	tree, err := dtree.BuildInMemory(ds, dtree.Options{MaxDepth: 6})
	if err != nil {
		return nil, err
	}
	model, err := dtree.Compile(tree, "m")
	if err != nil {
		return nil, err
	}

	e := &Experiment{
		ID:     "scoring",
		Title:  "In-database batch scoring vs in-client row loop",
		XLabel: "table",
		YLabel: "virtual seconds",
		PaperShape: "shipping the model to the data beats shipping the data to the model: the " +
			"vectorized in-engine operator reads only the split columns' pages and scores " +
			"dictionary codes in 1024-row blocks, so it outruns the full-width cursor + " +
			"client tree walk on both time and modeled page I/O",
		Series: []Series{
			{Name: "in-engine batch"},
			{Name: "in-client row loop"},
		},
	}

	label := fmt.Sprintf("census %d rows", len(ds.Rows))
	// In-engine arm: vectorized scoring over the columnar store.
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	if _, err := engine.NewServer(eng, "cases", ds); err != nil {
		return nil, err
	}
	env.attach(meter, eng)
	if err := eng.RegisterModel(model); err != nil {
		return nil, err
	}
	tbl, err := eng.Table("cases")
	if err != nil {
		return nil, err
	}
	before := meter.Snapshot()
	res, err := eng.ScoreTable(tbl, model)
	if err != nil {
		return nil, err
	}
	if res.Rows != int64(len(ds.Rows)) {
		return nil, fmt.Errorf("exp scoring: engine scored %d rows, want %d", res.Rows, len(ds.Rows))
	}
	e.Series[0].Points = append(e.Series[0].Points, scoringPoint(meter, before, label, res.Rows))

	// In-client arm: full-width cursor extraction, then a per-row tree
	// walk at the client. The extraction pays the row-scan cost model
	// (cursor, pages, per-row transmit); the client pays a row
	// materialization plus one model-node probe per tree level walked —
	// the same walk the engine operator performs, minus the vectorized
	// batching.
	cmeter := sim.NewDefaultMeter()
	ceng := engine.New(cmeter, 0)
	if _, err := engine.NewServer(ceng, "cases", ds); err != nil {
		return nil, err
	}
	env.attach(cmeter, ceng)
	cbefore := cmeter.Snapshot()
	rs, err := ceng.Exec("SELECT * FROM cases")
	if err != nil {
		return nil, err
	}
	costs := cmeter.Costs()
	probes := int64(0)
	for _, row := range ds.Rows {
		probes += clientWalkProbes(tree, row)
	}
	cmeter.Charge(sim.CtrClientRows, costs.ClientRowLoad, int64(len(rs.Rows)))
	cmeter.Charge(sim.CtrScoreRows, costs.ScoreRowEval, int64(len(rs.Rows)))
	cmeter.Charge(sim.CtrModelProbes, costs.ModelNodeProbe, probes)
	e.Series[1].Points = append(e.Series[1].Points, scoringPoint(cmeter, cbefore, label, int64(len(rs.Rows))))
	return e, nil
}

// clientWalkProbes counts the nodes an in-client prediction visits,
// including the stop node — the client-side analogue of the engine
// operator's model_node_probes accounting.
func clientWalkProbes(t *dtree.Tree, row data.Row) int64 {
	n := t.Root
	probes := int64(1)
	for !n.Leaf {
		var next *dtree.Node
		if !n.Multiway {
			if row[n.SplitAttr] == n.SplitVal {
				next = n.Children[0]
			} else {
				next = n.Children[1]
			}
		} else {
			for i, sv := range n.SplitVals {
				if row[n.SplitAttr] == sv {
					next = n.Children[i]
					break
				}
			}
		}
		if next == nil {
			return probes
		}
		n = next
		probes++
	}
	return probes
}

// scoringPoint snapshots one scoring arm's measurement.
func scoringPoint(m *sim.Meter, before sim.Snapshot, label string, rows int64) Point {
	secs := m.Since(before).Seconds()
	counters := map[string]int64{
		"server_pages_read": m.CountSince(before, sim.CtrServerPages),
		"score_rows":        m.CountSince(before, sim.CtrScoreRows),
		"model_node_probes": m.CountSince(before, sim.CtrModelProbes),
		"rows_transmitted":  m.CountSince(before, sim.CtrRowsTransmitted),
	}
	if secs > 0 {
		counters["rows_per_sec"] = int64(float64(rows) / secs)
	}
	return Point{Label: label, Seconds: secs, Counters: counters}
}
