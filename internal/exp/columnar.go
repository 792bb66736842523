package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/mw"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// ColumnarStorage measures what the columnar row groups every server scan
// reads buy over reading the same table as a row heap, on the skew protocol (a root
// counting request plus one region-selective request per region, one per
// batch, at 8 workers). The heap side is arithmetic, not a second scan path: a
// heap scan reads every page of the table, so the protocol's scans would read
// Server.NumPages() each. Two workloads separate the two effects the row
// groups stack: on uniform data every row group holds every region value, so the
// entire win is dictionary packing — fewer modeled pages per full scan; on the
// clustered table the per-group dictionaries double as zone maps, whole row
// groups fail the region filter before any page I/O is charged, and the
// modeled page count collapses. Every CC table must equal the one cc.AddRow
// builds from the dataset's rows under the node's predicate.
func ColumnarStorage(env *Env, scale float64) (*Experiment, error) {
	const regions = 6
	rows := scaled(regionRows, scale)
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
		PaperShape: "the columnar copy reads fewer modeled pages than as many scans of the " +
			"heap would on every workload (dictionary packing), at least 2x fewer on the " +
			"clustered table (zone maps skip whole row groups) — with every counted value " +
			"identical to a row-at-a-time count of the dataset",
		Series: []Series{{Name: "columnar"}},
	}
	for _, wl := range []struct {
		label string
		ds    *data.Dataset
	}{
		{"uniform", uniform},
		{"clustered", clustered},
	} {
		srv, _, fp, err := regionBuild(env, "columnar", wl.ds, regions, mw.Config{Workers: 8, MaxBatch: 1})
		if err != nil {
			return nil, err
		}
		meter := srv.Meter()
		if fp != regionReference(wl.ds, regions) {
			return nil, fmt.Errorf("exp columnar: %s: counts differ from the row-at-a-time reference", wl.label)
		}
		counters := map[string]int64{
			sim.CtrServerPages.String(): meter.Count(sim.CtrServerPages),
			// One heap scan per batch reads every page of the table.
			"heap_pages": meter.Count(sim.CtrBatches) * int64(srv.NumPages()),
		}
		for _, c := range []sim.Counter{sim.CtrColGroupsScanned, sim.CtrColGroupsSkipped} {
			if v := meter.Count(c); v != 0 {
				counters[c.String()] = v
			}
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{
			Label: wl.label, Seconds: meter.Now().Seconds(), Counters: counters,
		})
	}
	return e, nil
}

// regionReference is the fingerprint regionBuild must produce: every node's
// table counted row at a time (cc.Table.AddRow) from the rows of ds the node's
// path selects.
func regionReference(ds *data.Dataset, regions int) string {
	attrs := make([]int, ds.Schema.NumCols()) // every attribute, then the class column
	for i := range attrs {
		attrs[i] = i
	}
	var sb strings.Builder
	sb.WriteString(regionPrint(0, cc.FromDataset(ds, attrs, nil)))
	for v := 0; v < regions; v++ {
		path := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: data.Value(v)}})
		sb.WriteString(regionPrint(1+v, cc.FromDataset(ds, attrs[1:], path.Eval)))
	}
	return sb.String()
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
