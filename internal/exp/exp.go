// Package exp reproduces every figure of the paper's experimental study
// (§5.2) on the simulated stack: each runner builds the figure's workload,
// drives the middleware (and, where the figure calls for them, the baseline
// strategies), and reports one series per curve in virtual-time seconds.
//
// Absolute numbers are not expected to match the paper (the substrate is a
// calibrated simulator, not SQL Server 7.0 on Pentium-II hardware); the
// shapes — which configuration wins, by roughly what factor, and where
// curves flatten or cross — are the reproduction target. testdata/scale1.md
// and scale4.md record every figure's measurements; EXPERIMENTS.md records the
// paper's claim and the verdict for each.
package exp

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Env carries per-run observability context into the runners. A nil *Env (or
// an Env with a nil Trace) is fully supported and means "no instrumentation":
// every hook below degrades to a no-op, so batch runs and tests pay nothing.
// Obs wiring never perturbs measured results — spans observe the meter, they
// do not charge it.
type Env struct {
	Obs   *obs.Trace
	Label string // proc label prefix for traces, e.g. the figure id
}

// attach registers one tree build with the trace: a tracer on the engine,
// which the middleware over it shares. Safe on a nil receiver.
func (e *Env) attach(meter *sim.Meter, eng *engine.Engine) {
	if e == nil || e.Obs == nil {
		return
	}
	label := e.Label
	if label == "" {
		label = "build"
	}
	eng.SetTracer(e.Obs.Proc(label, meter))
}

// Generated datasets are memoized per (generator, configuration) for the life
// of the process. The generators are pure functions of their configuration,
// several runners draw the same workload, and nothing downstream writes to a
// dataset — engine.NewServer encodes the rows into its table — so every runner
// reads the one copy. The fingerprint taken at generation lets
// TestAllShapeChecksPass assert that nobody did write.
var datasets = struct {
	sync.Mutex
	byConfig map[any]generated // keyed by the config value; its type names the generator
}{byConfig: map[any]generated{}}

type generated struct {
	ds  *data.Dataset
	sum uint64
}

func memoized[C comparable](cfg C, gen func(C) (*data.Dataset, error)) (*data.Dataset, error) {
	datasets.Lock()
	defer datasets.Unlock()
	if g, ok := datasets.byConfig[cfg]; ok {
		return g.ds, nil
	}
	ds, err := gen(cfg)
	if err != nil {
		return nil, err
	}
	datasets.byConfig[cfg] = generated{ds: ds, sum: fingerprint(ds)}
	return ds, nil
}

// fingerprint hashes every value of ds in row order.
func fingerprint(ds *data.Dataset) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, r := range ds.Rows {
		for _, v := range r {
			buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func censusData(cfg datagen.CensusConfig) (*data.Dataset, error) {
	return memoized(cfg, datagen.GenerateCensus)
}

func clusteredData(cfg datagen.ClusteredConfig) (*data.Dataset, error) {
	return memoized(cfg, datagen.GenerateClustered)
}

func gaussianData(cfg datagen.GaussianConfig) (*data.Dataset, error) {
	return memoized(cfg, datagen.GenerateGaussians)
}

func treeData(cfg datagen.TreeGenConfig) (*data.Dataset, error) {
	return memoized(cfg, func(cfg datagen.TreeGenConfig) (*data.Dataset, error) {
		ds, _, err := datagen.GenerateTreeData(cfg)
		return ds, err
	})
}

// Point is one measurement: x-value, virtual seconds, and selected counters.
type Point struct {
	X        float64
	Label    string // used instead of X when non-empty (categorical axes)
	Seconds  float64
	Counters map[string]int64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Experiment is one reproduced figure.
type Experiment struct {
	ID         string // e.g. "fig4-left"
	Title      string
	XLabel     string
	YLabel     string
	PaperShape string // the qualitative result the paper reports
	Series     []Series
}

// Markdown renders the experiment as a markdown section: a table of virtual
// seconds, one column per series, and — when any point carries counters — a
// table of counters, one row per series point. It is the one rendering:
// internal/exp/testdata/scale1.md is every runner's Markdown at scale 1.
func (e *Experiment) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", e.ID, e.Title)
	fmt.Fprintf(&b, "*Paper:* %s\n\n", e.PaperShape)
	fmt.Fprintf(&b, "| %s ", e.XLabel)
	for _, s := range e.Series {
		fmt.Fprintf(&b, "| %s ", s.Name)
	}
	b.WriteString("|\n|---")
	for range e.Series {
		b.WriteString("|---")
	}
	b.WriteString("|\n")
	for i, x := range e.xs() {
		fmt.Fprintf(&b, "| %s ", x.xCell())
		for _, s := range e.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "| %.3f ", s.Points[i].Seconds)
			} else {
				b.WriteString("| ")
			}
		}
		b.WriteString("|\n")
	}
	b.WriteString("\n")
	e.counterTable(&b)
	return b.String()
}

// counterTable writes the counters of every series point, one row each, under
// the union of the experiment's counter names; a counter a point does not
// carry is an empty cell.
func (e *Experiment) counterTable(b *strings.Builder) {
	var names []string
	for _, s := range e.Series {
		for _, p := range s.Points {
			for name := range p.Counters {
				if !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
		}
	}
	if len(names) == 0 {
		return
	}
	slices.Sort(names)
	fmt.Fprintf(b, "| series | %s |", e.XLabel)
	for _, name := range names {
		fmt.Fprintf(b, " %s |", name)
	}
	b.WriteString("\n|---|---")
	for range names {
		b.WriteString("|---")
	}
	b.WriteString("|\n")
	for _, s := range e.Series {
		for _, p := range s.Points {
			fmt.Fprintf(b, "| %s | %s |", s.Name, p.xCell())
			for _, name := range names {
				if v, ok := p.Counters[name]; ok {
					fmt.Fprintf(b, " %d |", v)
				} else {
					b.WriteString(" |")
				}
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("\n")
}

func (e *Experiment) xs() []Point {
	if len(e.Series) == 0 {
		return nil
	}
	longest := e.Series[0].Points
	for _, s := range e.Series[1:] {
		if len(s.Points) > len(longest) {
			longest = s.Points
		}
	}
	return longest
}

// xCell is the point's x-axis cell: its label on a categorical axis.
func (p Point) xCell() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("%.3g", p.X)
}

// BuildStats captures one measured tree build.
type BuildStats struct {
	Seconds  float64
	Tree     *dtree.Tree
	Counters map[string]int64
}

// selectedCounters are reported alongside times.
var selectedCounters = []sim.Counter{
	sim.CtrServerScans, sim.CtrRowsTransmitted, sim.CtrFileRowsRead,
	sim.CtrMemRowsRead, sim.CtrSQLStatements, sim.CtrSQLFallbacks,
	sim.CtrFilesCreated, sim.CtrServerPages,
}

func countersOf(m *sim.Meter) map[string]int64 {
	out := map[string]int64{}
	for _, c := range selectedCounters {
		if v := m.Count(c); v != 0 {
			out[c.String()] = v
		}
	}
	return out
}

// BuildTree loads ds into a fresh simulated server, grows a tree through a
// middleware with the given config, and returns the virtual-time cost of the
// build (loading is unmetered).
func BuildTree(env *Env, ds *data.Dataset, mcfg mw.Config, opt dtree.Options) (BuildStats, error) {
	return BuildTreeWithCosts(env, ds, sim.DefaultCosts(), mcfg, opt)
}

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
	return BuildStats{Seconds: meter.Now().Seconds(), Tree: tree, Counters: countersOf(meter)}, nil
}

// NewServer loads ds into a fresh engine with its own meter — the common
// setup step for baseline measurements.
func NewServer(ds *data.Dataset) (*engine.Server, error) {
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	return engine.NewServer(eng, "cases", ds)
}

// Registry lists every experiment runner by figure id.
type Runner struct {
	ID    string
	Run   func(env *Env, scale float64) (*Experiment, error)
	Notes string
}

// Runners returns all experiment runners in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig4-left", Fig4MemorySweep, "time vs middleware memory, caching vs no caching"},
		{"fig4-right", Fig4DataSize, "time vs data size at two memory levels"},
		{"fig5a", Fig5aLimitedCCMemory, "limited memory for count tables forces multiple scans"},
		{"fig5b", Fig5bRows, "scalability with the number of rows"},
		{"fig6", Fig6FileStaging, "four file-staging configurations vs memory"},
		{"fig7-left", Fig7Attributes, "scalability with the number of attributes"},
		{"fig7-right", Fig7SQLCounting, "SQL-based counting vs middleware"},
		{"fig8a", Fig8aAttributeValues, "attribute values; cursor scan vs file-based data store"},
		{"fig8b", Fig8bLeaves, "number of leaves; caching vs no caching"},
		{"sec5.2.5", IndexScans, "index-scan alternatives vs sequential scan"},
		{"extract-all", ExtractAllComparison, "extract-everything strawman vs middleware"},
		{"naive-bayes", NaiveBayesPlugin, "Naive Bayes plug-in client"},
		{"abl-pushdown", AblationFilterPushdown, "ablation: filter expression pushdown (§4.3.1)"},
		{"abl-batching", AblationBatching, "ablation: multi-node single-scan counting (§4.1.1)"},
		{"abl-rule3", AblationRule3, "ablation: Rule 3 smallest-estimate-first admission"},
		{"sensitivity", Sensitivity, "cost-model sensitivity of the headline orderings"},
		{"columnar", ColumnarStorage, "columnar row groups vs the row heap, uniform and clustered"},
		{"serve", ServeFleet, "concurrent multi-tenant builds, scan sharing on/off"},
		{"scoring", Scoring, "in-engine vectorized batch scoring vs in-client row loop"},
	}
}

// Get returns the runner with the given id.
func Get(id string) (Runner, bool) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment ids, sorted in paper order.
func IDs() []string {
	rs := Runners()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}
