package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// ColumnarStorage measures the columnar row-group path against the row heap
// on the skew protocol (a root counting request plus one region-selective
// request per region, one per batch, at 8 workers): the same builds, once
// over the heap cursors (ColumnarOff) and once over the dictionary-encoded
// columnar copy. Two workloads separate the two effects the path stacks:
// on uniform data every row group holds every region value, so the entire
// win is dictionary packing — fewer modeled pages per full scan; on the
// clustered table the per-group dictionaries double as zone maps, whole row
// groups fail the region filter before any page I/O is charged, and the
// modeled page count collapses. Counts must be identical in all four runs.
func ColumnarStorage(env *Env, scale float64) (*Experiment, error) {
	const regions = 6
	// The columnar scan partitions by 4096-row group, so the table must span
	// at least Workers row groups for the lanes to fan out fully — even at
	// the quarter scale the CI gate runs (32768 rows = 8 groups).
	rows := scaled(131072, scale)
	clustered, err := clusteredData(datagen.ClusteredConfig{
		Rows: rows, Seed: 17, Regions: regions, Attrs: 7,
	})
	if err != nil {
		return nil, err
	}
	uniform := uniformDataset(clustered.Schema, rows, 18)

	e := &Experiment{
		ID:     "columnar",
		Title:  "Columnar row groups: dictionary pages and zone-map skipping vs the row heap",
		XLabel: "workload",
		YLabel: "virtual seconds",
		PaperShape: "the columnar copy reads fewer modeled pages than the heap on every " +
			"workload (dictionary packing), at least 2x fewer on the clustered table " +
			"(zone maps skip whole row groups), and is never slower — with every " +
			"counted value identical to the row path's",
		Series: []Series{
			{Name: "row"},
			{Name: "columnar"},
		},
	}
	for _, wl := range []struct {
		label string
		ds    *data.Dataset
	}{
		{"uniform", uniform},
		{"clustered", clustered},
	} {
		var refFP string
		for si, mode := range []mw.ColumnarMode{mw.ColumnarOff, mw.ColumnarAuto} {
			secs, counters, fp, err := columnarDrive(env, wl.ds, regions, mode)
			if err != nil {
				return nil, err
			}
			if refFP == "" {
				refFP = fp
			} else if fp != refFP {
				return nil, fmt.Errorf("exp columnar: %s on %s: counts differ from the row path",
					e.Series[si].Name, wl.label)
			}
			e.Series[si].Points = append(e.Series[si].Points, Point{
				Label: wl.label, Seconds: secs, Counters: counters,
			})
		}
	}
	return e, nil
}

// uniformDataset redraws a schema's rows uniformly at random: same columns
// and cardinalities as the clustered table, no physical clustering — the
// ablation workload where zone maps cannot skip anything.
func uniformDataset(schema *data.Schema, rows int, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := data.NewDataset(schema)
	ncols := schema.NumCols()
	for i := 0; i < rows; i++ {
		r := make(data.Row, ncols)
		for c, a := range schema.Attrs {
			r[c] = data.Value(rng.Intn(a.Card))
		}
		r[ncols-1] = data.Value(rng.Intn(schema.Class.Card))
		ds.Append(r)
	}
	return ds
}

// columnarDrive runs the fixed skew protocol against a fresh middleware with
// the given columnar mode at 8 workers and returns the virtual build time,
// the scan-relevant counters, and a fingerprint of every fulfilled CC table.
func columnarDrive(env *Env, ds *data.Dataset, regions int, mode mw.ColumnarMode) (float64, map[string]int64, string, error) {
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		return 0, nil, "", err
	}
	cfg := mw.Config{
		Staging:  mw.StageNone,
		Workers:  8,
		MaxBatch: 1,
		Columnar: mode,
	}
	if env != nil && env.Obs != nil {
		label := env.Label
		if label == "" {
			label = "columnar"
		}
		tr, pm := env.Obs.Proc(label, meter)
		eng.SetTracer(tr)
		cfg.Metrics = pm
	}
	m, err := mw.New(srv, cfg)
	if err != nil {
		return 0, nil, "", err
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
				return fmt.Errorf("exp columnar: pending requests but Step produced no results")
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
		return 0, nil, "", err
	}
	if err := drain(); err != nil {
		return 0, nil, "", err
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
			return 0, nil, "", err
		}
	}
	m.CloseNode(0)
	if err := drain(); err != nil {
		return 0, nil, "", err
	}
	for v := 0; v < regions; v++ {
		m.CloseNode(1 + v)
	}

	counters := map[string]int64{
		sim.CtrServerPages.String(): meter.Count(sim.CtrServerPages),
	}
	for _, c := range []sim.Counter{sim.CtrColGroupsScanned, sim.CtrColGroupsSkipped} {
		if v := meter.Count(c); v != 0 {
			counters[c.String()] = v
		}
	}
	return meter.Now().Seconds(), counters, sb.String(), nil
}
