package exp

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/mw"
	"repro/internal/nb"
)

// The experiments run on scaled-down versions of the paper's workloads so
// that the whole suite completes in seconds. scale = 1 is the default and the
// size every shape check is calibrated at; the cmd/experiments binary accepts
// larger scales for closer-to-paper sizes.
// All randomness is seeded, so results are fully deterministic.

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}

// fig45Data generates the Fig 4/5 workload: 500-leaf random-tree data where
// cases per leaf set the data size (§5.2.1), scaled down.
func fig45Data(scale float64, casesPerLeaf int, seed int64) (*data.Dataset, error) {
	cfg := datagen.TreeGenConfig{
		Leaves:       scaled(60, scale),
		Attrs:        25,
		Values:       4,
		ValuesStdDev: 0,
		Classes:      10,
		CasesPerLeaf: casesPerLeaf,
		Seed:         seed,
	}
	return treeData(cfg)
}

const mb = 1 << 20

// Fig4MemorySweep reproduces Figure 4 (left): total tree-build time versus
// middleware memory, with and without data caching. The paper's curves drop
// as memory grows and flatten once (caching) the whole data set is loaded on
// the first scan or (no caching) a full frontier of count tables fits in one
// scan; caching dominates at every memory size where the data fits.
func Fig4MemorySweep(env *Env, scale float64) (*Experiment, error) {
	ds, err := fig45Data(scale, 100, 41)
	if err != nil {
		return nil, err
	}
	bytes := ds.Bytes()
	fractions := []float64{0.10, 0.20, 0.40, 0.70, 1.00, 1.30, 2.00, 2.60}
	e := &Experiment{
		ID:     "fig4-left",
		Title:  "Effect of memory buffer size (fixed data size)",
		XLabel: "memory (MB)",
		YLabel: "virtual seconds",
		PaperShape: "both curves fall with memory and flatten; with caching the entire data set " +
			"loads on the first scan and beats no-caching until both flatten at high memory",
		Series: []Series{{Name: "caching"}, {Name: "no caching"}},
	}
	for _, f := range fractions {
		memBytes := int64(f * float64(bytes))
		x := float64(memBytes) / mb
		withC, err := BuildTree(env, ds, mw.Config{Staging: mw.StageMemoryOnly, Memory: memBytes}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		noC, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Memory: memBytes}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: withC.Seconds, Counters: withC.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: x, Seconds: noC.Seconds, Counters: noC.Counters})
	}
	return e, nil
}

// Fig4DataSize reproduces Figure 4 (right): time versus data size at two
// memory levels, with and without caching. Time grows with data size in all
// configurations; low-memory/no-caching grows fastest, caching with enough
// memory stays cheapest.
func Fig4DataSize(env *Env, scale float64) (*Experiment, error) {
	casesSweep := []int{40, 80, 160, 320}
	// Memory levels chosen relative to the largest data set, mirroring the
	// paper's 5 MB / 20 MB against data up to ~60 MB.
	large, err := fig45Data(scale, casesSweep[len(casesSweep)-1], 42)
	if err != nil {
		return nil, err
	}
	memLo := large.Bytes() / 8
	memHi := large.Bytes() * 6 / 10
	e := &Experiment{
		ID:     "fig4-right",
		Title:  "Effect of data size at two memory levels",
		XLabel: "data (MB)",
		YLabel: "virtual seconds",
		PaperShape: "time rises with data size in all four configurations; caching helps while data " +
			"fits in memory, and the low-memory no-caching curve is steepest",
		Series: []Series{
			{Name: "loMem caching"}, {Name: "loMem no-cache"},
			{Name: "hiMem caching"}, {Name: "hiMem no-cache"},
		},
	}
	for _, cases := range casesSweep {
		ds, err := fig45Data(scale, cases, 42)
		if err != nil {
			return nil, err
		}
		x := float64(ds.Bytes()) / mb
		cfgs := []mw.Config{
			{Staging: mw.StageMemoryOnly, Memory: memLo},
			{Staging: mw.StageNone, Memory: memLo},
			{Staging: mw.StageMemoryOnly, Memory: memHi},
			{Staging: mw.StageNone, Memory: memHi},
		}
		for i, cfg := range cfgs {
			st, err := BuildTree(env, ds, cfg, dtree.Options{})
			if err != nil {
				return nil, err
			}
			e.Series[i].Points = append(e.Series[i].Points, Point{X: x, Seconds: st.Seconds, Counters: st.Counters})
		}
	}
	return e, nil
}

// Fig5aLimitedCCMemory reproduces Figure 5a: with staging disabled, shrinking
// the memory available for count tables below a full frontier forces
// multiple server scans per tree level, and time rises steeply.
func Fig5aLimitedCCMemory(env *Env, scale float64) (*Experiment, error) {
	ds, err := fig45Data(scale, 100, 43)
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:     "fig5a",
		Title:  "Limited memory for count tables (no staging)",
		XLabel: "memory (KB)",
		YLabel: "virtual seconds",
		PaperShape: "time falls steeply as memory grows (fewer scans per frontier) and flattens " +
			"once all count tables of the frontier fit in one scan",
		Series: []Series{{Name: "no caching"}},
	}
	for _, kb := range []int64{64, 96, 128, 192, 256, 512, 1024, 2048} {
		st, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Memory: kb << 10}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: float64(kb), Seconds: st.Seconds, Counters: st.Counters})
	}
	return e, nil
}

// Fig5bRows reproduces Figure 5b: time versus the number of rows at a fixed
// memory budget. Growth is near linear; once the data outgrows the memory
// available for staging, proportionally less of it can be cached and the
// slope steepens.
func Fig5bRows(env *Env, scale float64) (*Experiment, error) {
	casesSweep := []int{30, 60, 120, 240, 480}
	mid, err := fig45Data(scale, casesSweep[2], 44)
	if err != nil {
		return nil, err
	}
	memory := mid.Bytes() // data at the midpoint of the sweep just fits
	e := &Experiment{
		ID:     "fig5b",
		Title:  "Scalability with the number of rows (fixed memory)",
		XLabel: "rows",
		YLabel: "virtual seconds",
		PaperShape: "near-linear growth; beyond the memory size a smaller fraction of the data " +
			"can be staged, causing more scans and a steeper slope",
		Series: []Series{{Name: "caching"}, {Name: "no caching"}},
	}
	for _, cases := range casesSweep {
		ds, err := fig45Data(scale, cases, 44)
		if err != nil {
			return nil, err
		}
		x := float64(ds.N())
		withC, err := BuildTree(env, ds, mw.Config{Staging: mw.StageMemoryOnly, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		noC, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: withC.Seconds, Counters: withC.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: x, Seconds: noC.Seconds, Counters: noC.Counters})
	}
	return e, nil
}

// censusTree returns the Fig 6 workload: census-like data and options tuned
// to a few-hundred-node tree (the paper "adjusted the scoring algorithm to
// produce a smaller tree (about 300 nodes)").
func censusTree(scale float64, seed int64) (*data.Dataset, dtree.Options, error) {
	ds, err := censusData(datagen.CensusConfig{Rows: scaled(12000, scale), Seed: seed})
	if err != nil {
		return nil, dtree.Options{}, err
	}
	opt := dtree.Options{MinRows: int64(ds.N() / 150), MaxDepth: 10}
	return ds, opt, nil
}

// Fig6FileStaging reproduces Figure 6: total tree-build time for the four
// file-staging configurations as middleware memory grows.
func Fig6FileStaging(env *Env, scale float64) (*Experiment, error) {
	ds, opt, err := censusTree(scale, 45)
	if err != nil {
		return nil, err
	}
	bytes := ds.Bytes()
	e := &Experiment{
		ID:     "fig6",
		Title:  "File staging configurations (census-like data)",
		XLabel: "memory (MB)",
		YLabel: "virtual seconds",
		PaperShape: "file-per-node pays heavy splitting overhead early in the tree; one-file re-scans " +
			"too much late in the tree; the 50% hybrid wins, and adding memory caching wins more as memory grows " +
			"until everything fits",
		Series: []Series{
			{Name: "file/node"}, {Name: "one file"}, {Name: "split@50%"}, {Name: "split@50%+mem"},
		},
	}
	for _, f := range []float64{0.05, 0.10, 0.20, 0.60, 1.50} {
		memBytes := int64(f * float64(bytes))
		x := float64(memBytes) / mb
		cfgs := []mw.Config{
			{Staging: mw.StageFileOnly, FilePolicy: mw.FilePerNode, Memory: memBytes},
			{Staging: mw.StageFileOnly, FilePolicy: mw.FileSingleton, Memory: memBytes},
			{Staging: mw.StageFileOnly, FilePolicy: mw.FileSplitThreshold, Memory: memBytes},
			{Staging: mw.StageFileAndMemory, FilePolicy: mw.FileSplitThreshold, Memory: memBytes},
		}
		for i, cfg := range cfgs {
			st, err := BuildTree(env, ds, cfg, opt)
			if err != nil {
				return nil, err
			}
			e.Series[i].Points = append(e.Series[i].Points, Point{X: x, Seconds: st.Seconds, Counters: st.Counters})
		}
	}
	return e, nil
}

// Fig7Attributes reproduces Figure 7 (left): time versus the number of
// (binary) attributes with a fixed number of rows.
func Fig7Attributes(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "fig7-left",
		Title:  "Scalability with the number of attributes (binary attributes, fixed rows)",
		XLabel: "attributes",
		YLabel: "virtual seconds",
		PaperShape: "time grows with attribute count (bigger rows to ship, bigger estimated count " +
			"tables => fewer nodes per scan); caching stays below no-caching",
		Series: []Series{{Name: "caching"}, {Name: "no caching"}},
	}
	var maxBytes int64
	var dss []*data.Dataset
	attrsSweep := []int{10, 20, 40, 80}
	for _, attrs := range attrsSweep {
		cfg := datagen.TreeGenConfig{
			Leaves: scaled(40, scale), Attrs: attrs, Values: 2, ValuesStdDev: 0,
			Classes: 10, CasesPerLeaf: 125, Seed: 46,
		}
		ds, err := treeData(cfg)
		if err != nil {
			return nil, err
		}
		dss = append(dss, ds)
		if ds.Bytes() > maxBytes {
			maxBytes = ds.Bytes()
		}
	}
	memory := maxBytes / 3 // the paper's 32/64 MB against 40–200 MB data
	for i, attrs := range attrsSweep {
		withC, err := BuildTree(env, dss[i], mw.Config{Staging: mw.StageMemoryOnly, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		noC, err := BuildTree(env, dss[i], mw.Config{Staging: mw.StageNone, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		x := float64(attrs)
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: withC.Seconds, Counters: withC.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: x, Seconds: noC.Seconds, Counters: noC.Counters})
	}
	return e, nil
}

// Fig7SQLCounting reproduces Figure 7 (right): the straightforward
// SQL-based counting implementation versus the middleware's cursor scan on
// small data sets. Even at these sizes the UNION-of-GROUP-BY strawman is an
// order of magnitude slower, and diverges as data grows.
func Fig7SQLCounting(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "fig7-right",
		Title:  "SQL-based counting vs middleware cursor scan (small data)",
		XLabel: "rows",
		YLabel: "virtual seconds",
		PaperShape: "SQL-based counting is far slower even on 1–3 MB data sets and grows much faster; " +
			"for larger data it is 'unacceptably poor'",
		Series: []Series{{Name: "middleware"}, {Name: "sql counting"}},
	}
	// The paper scales both the number of leaves and the cases per leaf to
	// produce the 1–3 MB data sets, so the tree (and with it the number of
	// SQL statements) grows along with the data.
	for _, leaves := range []int{10, 20, 40} {
		cfg := datagen.TreeGenConfig{
			Leaves: scaled(leaves, scale), Attrs: 10, Values: 2, ValuesStdDev: 0,
			Classes: 5, CasesPerLeaf: 30 + leaves, Seed: 47,
		}
		ds, err := treeData(cfg)
		if err != nil {
			return nil, err
		}
		x := float64(ds.N())

		st, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: st.Seconds, Counters: st.Counters})

		srv, err := NewServer(ds)
		if err != nil {
			return nil, err
		}
		if _, err := baseline.SQLCounting(srv, dtree.Options{}); err != nil {
			return nil, err
		}
		e.Series[1].Points = append(e.Series[1].Points, Point{
			X: x, Seconds: srv.Meter().Now().Seconds(), Counters: countersOf(srv.Meter()),
		})
	}
	return e, nil
}

// Fig8aAttributeValues reproduces Figure 8a: time versus values per
// attribute on a long lop-sided tree, comparing the cursor scan (no caching)
// with the file-based data store.
func Fig8aAttributeValues(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "fig8a",
		Title:  "Attribute values on a lop-sided tree; cursor vs file-based data store",
		XLabel: "values per attribute",
		YLabel: "virtual seconds",
		PaperShape: "the file store looks good early (file reads beat cursor reads) but loses as the " +
			"relevant data shrinks, because the server's WHERE clause limits transmitted records while the " +
			"file must be fully re-read every scan",
		Series: []Series{{Name: "cursor no-cache"}, {Name: "file store"}},
	}
	for _, vals := range []int{2, 4, 8, 12} {
		cfg := datagen.TreeGenConfig{
			Leaves: scaled(50, scale), Attrs: 25, Values: vals, ValuesStdDev: 0,
			Classes: 6, CasesPerLeaf: 100, Skew: 0.97, Seed: 48,
		}
		ds, err := treeData(cfg)
		if err != nil {
			return nil, err
		}
		x := float64(vals)
		// A bounded counts-table budget, as in the paper's 8b setting:
		// late in the lop-sided tree the frontier needs several scans.
		memory := ds.Bytes() / 4

		st, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: st.Seconds, Counters: st.Counters})

		srv, err := NewServer(ds)
		if err != nil {
			return nil, err
		}
		if _, err := baseline.FileStore(srv, "", memory, dtree.Options{}); err != nil {
			return nil, err
		}
		e.Series[1].Points = append(e.Series[1].Points, Point{
			X: x, Seconds: srv.Meter().Now().Seconds(), Counters: countersOf(srv.Meter()),
		})
	}
	return e, nil
}

// Fig8bLeaves reproduces Figure 8b: time versus the number of leaves in the
// generating tree for a fixed data size, with a small memory budget.
func Fig8bLeaves(env *Env, scale float64) (*Experiment, error) {
	totalRows := scaled(8000, scale)
	e := &Experiment{
		ID:     "fig8b",
		Title:  "Number of leaves (fixed data size, small memory)",
		XLabel: "leaves",
		YLabel: "virtual seconds",
		PaperShape: "more leaves => less similar points, a larger request frontier and more scans; " +
			"time rises for both curves, with caching below no caching",
		Series: []Series{{Name: "caching"}, {Name: "no caching"}},
	}
	var memory int64
	for i, leaves := range []int{20, 40, 80, 160} {
		cfg := datagen.TreeGenConfig{
			Leaves: scaled(leaves, scale), Attrs: 25, Values: 4, ValuesStdDev: 0,
			Classes: 10, CasesPerLeaf: totalRows / scaled(leaves, scale), Seed: 49,
		}
		ds, err := treeData(cfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			memory = ds.Bytes() / 6 // the paper's "small amount of memory (8MB)" vs 10 MB data
		}
		x := float64(scaled(leaves, scale))
		withC, err := BuildTree(env, ds, mw.Config{Staging: mw.StageMemoryOnly, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		noC, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Memory: memory}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: withC.Seconds, Counters: withC.Counters})
		e.Series[1].Points = append(e.Series[1].Points, Point{X: x, Seconds: noC.Seconds, Counters: noC.Counters})
	}
	return e, nil
}

// IndexScans reproduces the §5.2.5 experiment: the auxiliary server-side
// access structures (copy table, TID join, keyset cursor + stored procedure)
// versus the plain sequential scan, on a lop-sided tree whose active data
// set shrinks along one long path.
func IndexScans(env *Env, scale float64) (*Experiment, error) {
	cfg := datagen.TreeGenConfig{
		Leaves: scaled(30, scale), Attrs: 12, Values: 3, ValuesStdDev: 0,
		Classes: 4, CasesPerLeaf: 200, Skew: 0.97, Seed: 50,
	}
	ds, err := treeData(cfg)
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:     "sec5.2.5",
		Title:  "Index-scan alternatives vs sequential scan (thin tree)",
		XLabel: "access mode",
		YLabel: "virtual seconds",
		PaperShape: "even under favourable conditions the index alternatives do not beat the plain " +
			"sequential scan with a pushed-down filter",
		Series: []Series{{Name: "total"}},
	}
	modes := []struct {
		name   string
		access mw.ServerAccess
	}{
		{"seq-scan", mw.AccessScan},
		{"keyset+sproc", mw.AccessKeyset},
		{"tid-join", mw.AccessTIDJoin},
		{"copy-table", mw.AccessCopyTable},
	}
	for i, md := range modes {
		st, err := BuildTree(env, ds, mw.Config{Staging: mw.StageNone, Access: md.access}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{
			X: float64(i), Label: md.name, Seconds: st.Seconds, Counters: st.Counters,
		})
	}
	return e, nil
}

// ExtractAllComparison measures the §2.3 extract-everything strawman against
// the middleware at growing data sizes, with a client memory that the larger
// data sets overflow.
func ExtractAllComparison(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "extract-all",
		Title:  "Extract-everything strawman vs middleware",
		XLabel: "rows",
		YLabel: "virtual seconds",
		PaperShape: "extracting the entire data set to the client 'performs extremely poorly' once " +
			"the data exceeds client memory; the middleware scales past it",
		Series: []Series{{Name: "middleware caching"}, {Name: "extract-all"}},
	}
	var clientMem int64
	for i, cases := range []int{40, 80, 160, 320} {
		ds, err := fig45Data(scale, cases, 51)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			clientMem = 2 * ds.Bytes() // the smallest data set fits; later ones spill
		}
		x := float64(ds.N())
		st, err := BuildTree(env, ds, mw.Config{Staging: mw.StageMemoryOnly, Memory: clientMem}, dtree.Options{})
		if err != nil {
			return nil, err
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{X: x, Seconds: st.Seconds, Counters: st.Counters})

		srv, err := NewServer(ds)
		if err != nil {
			return nil, err
		}
		if _, err := baseline.ExtractAll(srv, clientMem, dtree.Options{}); err != nil {
			return nil, err
		}
		e.Series[1].Points = append(e.Series[1].Points, Point{
			X: x, Seconds: srv.Meter().Now().Seconds(), Counters: countersOf(srv.Meter()),
		})
	}
	return e, nil
}

// NaiveBayesPlugin measures the Naive Bayes client: one scan of the data
// builds the root counts table and the model; time is linear in rows and a
// small multiple of a single scan regardless of data size.
func NaiveBayesPlugin(env *Env, scale float64) (*Experiment, error) {
	e := &Experiment{
		ID:     "naive-bayes",
		Title:  "Naive Bayes plug-in client (single-scan training)",
		XLabel: "rows",
		YLabel: "virtual seconds",
		PaperShape: "any sufficient-statistics classifier plugs into the middleware; Naive Bayes " +
			"trains in exactly one scan, so time is linear in data size",
		Series: []Series{{Name: "nb train"}},
	}
	for _, perClass := range []int{200, 400, 800} {
		ds, err := gaussianData(datagen.GaussianConfig{
			Dims: 20, Components: 5, PerClass: scaled(perClass, scale), Bins: 4, Seed: 52,
		})
		if err != nil {
			return nil, err
		}
		srv, err := NewServer(ds)
		if err != nil {
			return nil, err
		}
		m, err := mw.New(srv, mw.Config{})
		if err != nil {
			return nil, err
		}
		model, err := nb.Train(m)
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Close()
		if acc := model.Accuracy(ds); acc < 1.0/float64(ds.Schema.Class.Card) {
			return nil, fmt.Errorf("naive bayes accuracy %.3f below chance", acc)
		}
		e.Series[0].Points = append(e.Series[0].Points, Point{
			X: float64(ds.N()), Seconds: srv.Meter().Now().Seconds(), Counters: countersOf(srv.Meter()),
		})
	}
	return e, nil
}
