package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// regionRows is the size of the clustered table the skew and columnar runners
// share. Scans partition by 4096-row group, so the table must span several
// row groups per lane at 8 workers — even at the quarter scale the CI gates
// run — for a split policy to have anything to choose between.
const regionRows = 524288

// SkewPartitioning measures skew-aware (group-weighted) partitioning against
// equal-width row-group splits on the clustered workload, where rows are
// physically ordered by a "region" attribute. Each build answers one
// region-selective counting request per region, one request per batch, so
// every parallel scan faces maximal placement skew: all matching rows sit in
// one contiguous slab of row groups, and the zone maps prove every other group
// empty. With equal-width splits the lanes owning the slab read, evaluate,
// transmit and count all of it while the others skip everything they own;
// weighted splits (engine.GroupBounds) size the group ranges by estimated work
// and should cut the per-batch lane imbalance by at least 2x at 8 workers —
// without changing a single counted value. Wall-clock (virtual seconds) and
// the worst per-batch lane imbalance are both recorded, for Workers in
// {1, 2, 4, 8} and both split policies.
func SkewPartitioning(env *Env, scale float64) (*Experiment, error) {
	const regions = 6
	ds, err := clusteredData(datagen.ClusteredConfig{
		Rows: scaled(regionRows, scale), Seed: 17, Regions: regions, Attrs: 7,
	})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:     "skew",
		Title:  "Skew-aware partitioning: lane imbalance and build time vs workers",
		XLabel: "workers",
		YLabel: "virtual seconds",
		PaperShape: "on a clustered table, group-weighted splits cut the worst " +
			"per-batch lane imbalance by >= 2x versus equal-width row-group splits at 8 workers, " +
			"are never slower, and every counted value is identical under both policies",
		Series: []Series{
			{Name: "equal-width"},
			{Name: "histogram"},
		},
	}
	var refFP string
	for si, noHints := range []bool{true, false} {
		for _, workers := range []int{1, 2, 4, 8} {
			srv, imb, fp, err := regionBuild(env, "skew", ds, regions, mw.Config{
				Workers: workers, MaxBatch: 1, NoHistogramHints: noHints,
			})
			if err != nil {
				return nil, err
			}
			if refFP == "" {
				refFP = fp
			} else if fp != refFP {
				return nil, fmt.Errorf("exp skew: %s at %d workers: counts differ from reference run",
					e.Series[si].Name, workers)
			}
			e.Series[si].Points = append(e.Series[si].Points, Point{
				X: float64(workers), Seconds: srv.Meter().Now().Seconds(),
				Counters: map[string]int64{"max_lane_imbalance_ns": imb},
			})
		}
	}
	return e, nil
}

// regionBuild runs the fixed skew protocol — a root counting request followed
// by one region-selective request per region (a point filter on the clustering
// attribute, counting over the remaining attributes), one request per batch —
// against a fresh server and middleware, and returns the server (its meter
// holds the build's clock and counters), the worst per-batch lane imbalance,
// and a fingerprint of every fulfilled CC table. cfg must leave staging off, which keeps every batch on the
// partitioned server scan, and set MaxBatch to one, which stops the scheduler
// from OR-ing region filters together (diluting the skew the protocol exists to
// produce).
func regionBuild(env *Env, label string, ds *data.Dataset, regions int, cfg mw.Config) (*engine.Server, int64, string, error) {
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		return nil, 0, "", err
	}
	// Lane imbalance is read off the lane spans, so the build is always traced
	// — into the caller's trace when one is wired up (so its spans land beside
	// every other figure's), into a private one otherwise.
	trace := obs.NewTrace()
	if env != nil && env.Obs != nil {
		trace = env.Obs
		if env.Label != "" {
			label = env.Label
		}
	}
	eng.SetTracer(trace.Proc(label, meter))
	m, err := mw.New(srv, cfg)
	if err != nil {
		return nil, 0, "", err
	}
	defer m.Close()

	var sb strings.Builder
	drain := func() error {
		for m.Pending() > 0 {
			results, err := m.Step()
			if err != nil {
				return err
			}
			if len(results) == 0 {
				return fmt.Errorf("exp %s: pending requests but Step produced no results", label)
			}
			sort.Slice(results, func(i, j int) bool { return results[i].Req.NodeID < results[j].Req.NodeID })
			for _, r := range results {
				sb.WriteString(regionPrint(r.Req.NodeID, r.CC))
			}
		}
		return nil
	}

	attrs := make([]int, ds.Schema.NumAttrs())
	for i := range attrs {
		attrs[i] = i
	}
	var est int64
	for _, a := range ds.Schema.Attrs {
		est += int64(a.Card)
	}
	est = est*int64(ds.Schema.Class.Card) + int64(ds.Schema.Class.Card)
	if err := m.Enqueue(&mw.Request{
		NodeID: 0, ParentID: -1, Attrs: attrs, Rows: int64(ds.N()), EstCC: est,
	}); err != nil {
		return nil, 0, "", err
	}
	if err := drain(); err != nil {
		return nil, 0, "", err
	}
	for v := 0; v < regions; v++ {
		val := data.Value(v)
		var rows int64
		for _, r := range ds.Rows {
			if r[0] == val {
				rows++
			}
		}
		if err := m.Enqueue(&mw.Request{
			NodeID: 1 + v, ParentID: 0,
			Path:  predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: val}},
			Attrs: attrs[1:],
			Rows:  rows,
			EstCC: est,
		}); err != nil {
			return nil, 0, "", err
		}
	}
	m.CloseNode(0)
	if err := drain(); err != nil {
		return nil, 0, "", err
	}
	for v := 0; v < regions; v++ {
		m.CloseNode(1 + v)
	}
	return srv, worstLaneImbalance(trace), sb.String(), nil
}

// worstLaneImbalance profiles the proc a trace registered last and returns
// the largest lane imbalance (max − min lane busy time) over its batch scans'
// join barriers.
func worstLaneImbalance(t *obs.Trace) int64 {
	var last obs.ProcView
	t.EachProc(func(pv obs.ProcView) { last = pv })
	var worst int64
	for _, g := range profile.ComputeProc(last).Forks {
		if g.ParentCat == obs.CatScan {
			worst = max(worst, g.ImbalanceNS())
		}
	}
	return worst
}

// regionPrint is one node's line of a regionBuild fingerprint.
func regionPrint(node int, t *cc.Table) string {
	return fmt.Sprintf("node %d rows=%d cc=%s\n", node, t.Rows(), t.String())
}
