package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// SkewPartitioning measures skew-aware (histogram-guided) partitioning
// against equal-width page splits on the clustered workload, where rows are
// physically ordered by a "region" attribute. Each build answers one
// region-selective counting request per region, one request per batch, so
// every parallel scan faces maximal placement skew: all matching rows sit in
// one contiguous slab of pages. With equal-width splits the lane owning the
// slab pays every transmit and CC-update cost while the others scan and
// discard; histogram-guided splits size the page ranges by estimated work
// and should cut the per-batch lane imbalance by at least 2x at 8 workers —
// without changing a single counted value. Wall-clock (virtual seconds) and
// the worst per-batch lane imbalance are both recorded, for Workers in
// {1, 2, 4, 8} and both split policies.
func SkewPartitioning(env *Env, scale float64) (*Experiment, error) {
	const regions = 6
	ds, err := clusteredData(datagen.ClusteredConfig{
		Rows:    scaled(32000, scale),
		Seed:    11,
		Regions: regions,
		Attrs:   7,
	})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:     "skew",
		Title:  "Skew-aware partitioning: lane imbalance and build time vs workers",
		XLabel: "workers",
		YLabel: "virtual seconds",
		PaperShape: "on a clustered table, histogram-guided page splits cut the worst " +
			"per-batch lane imbalance by >= 2x versus equal-width splits at 8 workers, " +
			"are never slower, and every counted value is identical under both policies",
		Series: []Series{
			{Name: "equal-width"},
			{Name: "histogram"},
		},
	}
	var refFP string
	for si, noHints := range []bool{true, false} {
		for _, workers := range []int{1, 2, 4, 8} {
			secs, imb, fp, err := skewDrive(env, ds, regions, workers, noHints)
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
				X: float64(workers), Seconds: secs,
				Counters: map[string]int64{"max_lane_imbalance_ns": imb},
			})
		}
	}
	return e, nil
}

// skewDrive runs the fixed skew protocol — a root counting request followed
// by one region-selective request per region, one request per batch — against
// a fresh middleware and returns the virtual build time, the worst per-batch
// lane imbalance, and a fingerprint of every fulfilled CC table. StageNone
// keeps every batch on the partitioned server scan, and MaxBatch of one stops
// the scheduler from OR-ing region filters together (which would dilute the
// skew the experiment exists to measure).
func skewDrive(env *Env, ds *data.Dataset, regions, workers int, noHints bool) (float64, int64, string, error) {
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		return 0, 0, "", err
	}
	cfg := mw.Config{
		Staging:          mw.StageNone,
		Workers:          workers,
		MaxBatch:         1,
		NoHistogramHints: noHints,
		// The experiment compares page-split policies on the row path; the
		// columnar path partitions by row group and is measured by the
		// columnar experiment instead.
		Columnar: mw.ColumnarOff,
	}
	// Lane imbalance comes from the metrics layer, so this runner always
	// attaches a ProcMetrics — the caller's collector when one is wired up
	// (so traces land beside every other figure's), a private one otherwise.
	label := "skew"
	if env != nil && env.Obs != nil {
		if env.Label != "" {
			label = env.Label
		}
		tr, pm := env.Obs.Proc(label, meter)
		eng.SetTracer(tr)
		cfg.Metrics = pm
	} else {
		_, pm := obs.NewCollector(false, true).Proc(label, meter)
		cfg.Metrics = pm
	}
	pm := cfg.Metrics
	m, err := mw.New(srv, cfg)
	if err != nil {
		return 0, 0, "", err
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
				return fmt.Errorf("exp skew: pending requests but Step produced no results")
			}
			sort.Slice(results, func(i, j int) bool { return results[i].Req.NodeID < results[j].Req.NodeID })
			for _, r := range results {
				fmt.Fprintf(&sb, "node %d rows=%d cc=%s\n", r.Req.NodeID, r.CC.Rows(), r.CC.String())
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
		return 0, 0, "", err
	}
	if err := drain(); err != nil {
		return 0, 0, "", err
	}

	// One child per region value: a point filter on the clustering attribute,
	// counting over the remaining attributes.
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
			return 0, 0, "", err
		}
	}
	m.CloseNode(0)
	if err := drain(); err != nil {
		return 0, 0, "", err
	}
	for v := 0; v < regions; v++ {
		m.CloseNode(1 + v)
	}
	return meter.Now().Seconds(), pm.MaxLaneImbalanceNS(), sb.String(), nil
}
