package main

import (
	"database/sql"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"

	_ "repro/driver" // registers the ccsql database/sql driver
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/serve"
	"repro/internal/sim"
)

// modelName is the catalog name the scoring model is registered under.
const modelName = "m"

// Statement mix of one serve_mixed round: one BUILD TREE, one SCORE TABLE
// and this many point statements of each of the two kinds. A round takes
// about a second, so that a run holds fifteen or more of them and the
// reference kernel runs between them often enough to follow the host.
const pointsPerKind = 20

// spec describes one workload. Sizes are chosen so that an operation takes
// 0.1–1 s on a 2-core box and a run of BENCHMARK.json's run_seconds holds
// enough operations for a steady median; README.md says why each exists.
type spec struct {
	name string
	rows int
	gen  func(rows int) (*data.Dataset, error)
	opt  dtree.Options
	// staged selects the paper's headline middleware configuration: file and
	// memory staging with the data four times larger than middleware memory.
	// Otherwise builds run unstaged with unlimited memory.
	staged bool
	// wire workloads send SQL through driver → wire → daemon; the others call
	// mw + dtree in process.
	wire  bool
	mixed bool
	// warmup operations run before timing starts.
	warmup int
	// tailQ is the latency quantile reported as bench.request_tail_raw_ms: the
	// highest that keeps at least ten samples beyond it at the default run
	// length (p75 on the build workloads is the exception — see README.md).
	tailQ float64
}

// The generators run with a fixed seed: every run of a workload holds the same
// population of rows, and setup shuffles it by the run's seed. Drawing the
// rows themselves from the seed changes the grown tree, and with it the work
// of one build by 4 % (census) to 20 % (tree data) between seeds, which would
// drown the bounds in BENCHMARK.json; see README.md.
func genCensus(rows int) (*data.Dataset, error) {
	return datagen.GenerateCensus(datagen.CensusConfig{Rows: rows, Seed: 1})
}

// genTree draws the §5.1.3 random-tree data (25 attributes, 10 classes) from
// 200 generating leaves, sized to rows.
func genTree(rows int) (*data.Dataset, error) {
	cfg := datagen.TreeGenConfig{Seed: 1, Leaves: 200}.Normalize()
	cfg.CasesPerLeaf = max(1, rows/cfg.Leaves)
	ds, _, err := datagen.GenerateTreeData(cfg)
	return ds, err
}

var specs = []*spec{
	{name: "build_scan", rows: 100000, gen: genCensus, opt: dtree.Options{MaxDepth: 8, MinRows: 50}, warmup: 3, tailQ: 0.75},
	{name: "build_staged", rows: 16000, gen: genTree, opt: dtree.Options{MinRows: 50}, staged: true, warmup: 2, tailQ: 0.75},
	{name: "serve_score", rows: 100000, gen: genCensus, opt: dtree.Options{MaxDepth: 8, MinRows: 50}, wire: true, warmup: 10, tailQ: 0.90},
	{name: "serve_mixed", rows: 50000, gen: genCensus, opt: dtree.Options{MaxDepth: 8, MinRows: 50}, wire: true, mixed: true, warmup: 1, tailQ: 0.95},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// mwConfig is the middleware configuration the workload builds with, in
// process or inside the daemon.
func (s *spec) mwConfig(ds *data.Dataset) mw.Config {
	if s.staged {
		return mw.Config{Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 4}
	}
	if s.wire {
		return mw.Config{Staging: mw.StageFileAndMemory} // cmd/served's default
	}
	return mw.Config{}
}

// env is one set-up system under test.
type env struct {
	spec  *spec
	ds    *data.Dataset
	srv   *engine.Server
	cfg   mw.Config
	probe probeBudget // traced runs only

	// Wire side; nil without a daemon.
	daemon *serve.Daemon
	ln     net.Listener
	served chan error
	db     *sql.DB

	// Oracle, prepared outside setup_s.
	oracle *dtree.Tree
	want   []data.Value // oracle prediction per row: the expected SCORE TABLE stream
	gen    *stmtGen
}

// setupTimes splits set-up by the layer that did the work.
type setupTimes struct {
	generate, load, total float64
}

// setup generates the workload's rows, shuffles them by the seed, loads them
// into a fresh engine and, with wire, starts the daemon on a loopback port,
// connects and trains the scoring model. Staging files go under os.TempDir().
func setup(s *spec, rows int, seed int64, wire bool) (*env, setupTimes, error) {
	var st setupTimes
	t0 := wallNow()
	ds, err := s.gen(rows)
	if err != nil {
		return nil, st, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ds.Rows), func(i, j int) {
		ds.Rows[i], ds.Rows[j] = ds.Rows[j], ds.Rows[i]
	})
	st.generate = sinceSec(t0)
	t1 := wallNow()
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		return nil, st, err
	}
	st.load = sinceSec(t1)
	e := &env{spec: s, ds: ds, srv: srv, cfg: s.mwConfig(ds)}
	if wire {
		if err := e.startDaemon(); err != nil {
			e.close()
			return nil, st, err
		}
	}
	st.total = sinceSec(t0)
	return e, st, nil
}

func (e *env) startDaemon() error {
	base := e.cfg
	base.Memory = 0 // the fleet slices TotalMemory itself
	e.daemon = serve.NewDaemon(e.srv, serve.DaemonConfig{Fleet: serve.FleetConfig{
		Base: base, TotalMemory: e.cfg.Memory, MaxSessions: 8, ScanSharing: true,
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.ln = ln
	e.served = make(chan error, 1)
	go func() { e.served <- e.daemon.Serve(ln) }()
	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		return err
	}
	e.db = db
	db.SetMaxOpenConns(1) // one client, closed loop
	_, err = db.Exec(buildSQL(e.spec.opt, modelName))
	return err
}

// close stops the daemon and waits until its goroutines have exited.
func (e *env) close() error {
	var err error
	if e.db != nil {
		err = e.db.Close()
	}
	if e.ln != nil {
		e.daemon.Drain(e.ln)
		if serr := <-e.served; err == nil {
			err = serr
		}
	}
	return err
}

// buildSQL renders the daemon's BUILD TREE command; a non-empty model
// registers the finished tree for scoring.
func buildSQL(opt dtree.Options, model string) string {
	var b strings.Builder
	b.WriteString("BUILD TREE")
	if opt.MaxDepth > 0 {
		fmt.Fprintf(&b, " MAXDEPTH %d", opt.MaxDepth)
	}
	fmt.Fprintf(&b, " MINROWS %d", opt.MinRows)
	if model != "" {
		b.WriteString(" MODEL " + model)
	}
	b.WriteString(" OUTPUT STATS")
	return b.String()
}

// prepareOracle builds the reference tree directly over the in-memory
// dataset and walks it over every row. Every measured output is compared
// against these; it returns its own wall seconds (bench.oracle_s).
func (e *env) prepareOracle(seed int64) (float64, error) {
	t0 := wallNow()
	tree, err := dtree.BuildInMemory(e.ds, e.spec.opt)
	if err != nil {
		return 0, err
	}
	e.oracle = tree
	e.want = make([]data.Value, e.ds.N())
	for i, r := range e.ds.Rows {
		e.want[i] = tree.Predict(r)
	}
	e.gen = newStmtGen(e.ds.Schema, seed)
	return sinceSec(t0), nil
}

// opResult is what one operation hands back: a latency per request (with the
// request's kind where an operation mixes kinds), and a check of every output
// that runs after the clock and the usage counters stopped.
type opResult struct {
	lat    []float64
	kinds  []stmtKind // nil: every request is of one kind
	verify func() (failed int)
}

// run executes one operation of the workload. With a tracer the same work is
// driven through the span-recording decomposition.
func (e *env) run(tr *tracer) (opResult, error) {
	switch {
	case e.spec.mixed:
		return e.mixedRound(tr)
	case e.spec.wire:
		return e.scoreOp(tr)
	default:
		return e.buildOp(tr)
	}
}

// typical returns the latencies of the operation's typical requests: its only
// request, or in a mixed round its point statements. request_p50_ms is the
// median over operations of their mean, not a median over single statements.
// The host steals time in gaps of tens of milliseconds; the reference kernel
// and any stretch of work longer than a gap lose their share of it, while a
// 6 ms statement is either missed by a gap or hit by a whole one. The median
// statement therefore slows down less than the kernel does, and correcting it
// by the kernel overshoots; the mean over a round's 40 statements does not.
func (r opResult) typical() []float64 {
	if r.kinds == nil {
		return r.lat
	}
	var out []float64
	for i, k := range r.kinds {
		if k == stmtClassify || k == stmtCount {
			out = append(out, r.lat[i])
		}
	}
	return out
}

func boolFail(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// buildOp is one full in-process build: middleware open, tree growth, close.
func (e *env) buildOp(tr *tracer) (opResult, error) {
	tr.begin("op")
	t0 := wallNow()
	var tree *dtree.Tree
	var err error
	if tr == nil {
		tree, err = buildPlain(e.srv, e.cfg, e.spec.opt)
	} else {
		tree, _, err = buildStepped(e.srv, e.cfg, e.spec.opt, tr)
	}
	d := sinceSec(t0)
	tr.end()
	if err != nil {
		return opResult{}, err
	}
	return opResult{lat: []float64{d}, verify: func() int { return boolFail(dtree.Equal(tree, e.oracle)) }}, nil
}

func buildPlain(srv *engine.Server, cfg mw.Config, opt dtree.Options) (*dtree.Tree, error) {
	m, err := mw.New(srv, cfg)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return dtree.Build(m, opt)
}

// stepStats is what the stepped build observes between Steps.
type stepStats struct {
	memPeak, filePeak int64
}

// buildStepped is dtree.Build taken apart at its public seams, so that the
// time in mw.Middleware.Step and in dtree.Builder.Feed can be told apart.
func buildStepped(srv *engine.Server, cfg mw.Config, opt dtree.Options, tr *tracer) (*dtree.Tree, stepStats, error) {
	var ss stepStats
	m, err := mw.New(srv, cfg)
	if err != nil {
		return nil, ss, err
	}
	defer m.Close()
	b, err := dtree.NewBuilder(m, opt)
	if err != nil {
		return nil, ss, err
	}
	for b.Pending() > 0 {
		tr.begin("mw.step")
		results, err := m.Step()
		tr.endStep(batchSource(results), len(results))
		if err != nil {
			b.Abort()
			return nil, ss, err
		}
		ss.memPeak = max(ss.memPeak, m.MemoryInUse())
		ss.filePeak = max(ss.filePeak, m.FileBytesInUse())
		tr.begin("dtree.feed")
		err = b.Feed(results)
		tr.end()
		if err != nil {
			b.Abort()
			return nil, ss, err
		}
	}
	tr.begin("dtree.finish")
	tree, err := b.Finish()
	tr.end()
	return tree, ss, err
}

// batchSource names where a batch read its data: the scan's source, or "sql"
// when every node of the batch went through the SQL fallback.
func batchSource(results []*mw.Result) string {
	for _, r := range results {
		if !r.ViaSQL {
			return r.Source
		}
	}
	if len(results) > 0 {
		return "sql"
	}
	return "none"
}

// scoreOp is one SCORE TABLE statement with every row scanned out of
// *sql.Rows.
func (e *env) scoreOp(tr *tracer) (opResult, error) {
	tr.begin("op")
	t0 := wallNow()
	got, _, err := e.scoreTable(tr)
	d := sinceSec(t0)
	tr.end()
	if err != nil {
		return opResult{}, err
	}
	return opResult{lat: []float64{d}, verify: func() int { return boolFail(e.scoreMatches(got)) }}, nil
}

// scoreTable streams SCORE TABLE and returns the class column, plus the
// seconds from sending the statement to the first row.
func (e *env) scoreTable(tr *tracer) ([]int32, float64, error) {
	t0 := wallNow()
	tr.begin("driver.query")
	rows, err := e.db.Query("SCORE TABLE cases USING " + modelName)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	defer rows.Close()
	tr.begin("driver.drain")
	defer tr.end()
	cols, err := rows.Columns()
	if err != nil {
		return nil, 0, err
	}
	vals := make([]int64, len(cols))
	dest := make([]any, len(cols))
	for i := range vals {
		dest[i] = &vals[i]
	}
	got := make([]int32, 0, len(e.want))
	var first float64
	for rows.Next() {
		if len(got) == 0 {
			first = sinceSec(t0)
		}
		if err := rows.Scan(dest...); err != nil {
			return nil, 0, err
		}
		got = append(got, int32(vals[0]))
	}
	return got, first, rows.Err()
}

func (e *env) scoreMatches(got []int32) bool {
	if len(got) != len(e.want) {
		return false
	}
	for i, c := range got {
		if data.Value(c) != e.want[i] {
			return false
		}
	}
	return true
}

// queryCells runs one statement over the wire and returns its rows.
func (e *env) queryCells(tr *tracer, q string) ([][]engine.Val, error) {
	tr.begin("driver.query")
	rows, err := e.db.Query(q)
	tr.end()
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	tr.begin("driver.drain")
	defer tr.end()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	vals := make([]any, len(cols))
	dest := make([]any, len(cols))
	for i := range vals {
		dest[i] = &vals[i]
	}
	var out [][]engine.Val
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return nil, err
		}
		row := make([]engine.Val, len(vals))
		for i, v := range vals {
			switch x := v.(type) {
			case int64:
				row[i] = engine.IntVal(x)
			case string:
				row[i] = engine.StrVal(x)
			default:
				return nil, fmt.Errorf("column %s: unexpected %T", cols[i], v)
			}
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// stmtKind tags the statements of a mixed round.
type stmtKind int

const (
	stmtBuild stmtKind = iota
	stmtScore
	stmtClassify
	stmtCount
)

type stmt struct {
	kind stmtKind
	sql  string
}

// stmtGen draws the seeded point statements. The CLASSIFY lookups filter on
// the three highest-cardinality attributes (on census: occupation, education
// and country), the counts group the class by the second of them.
type stmtGen struct {
	rng     *rand.Rand
	schema  *data.Schema
	filter  []int // attribute indices, by descending cardinality
	allCols string
}

func newStmtGen(s *data.Schema, seed int64) *stmtGen {
	g := &stmtGen{rng: rand.New(rand.NewSource(seed)), schema: s}
	idx := make([]int, s.NumAttrs())
	names := make([]string, s.NumAttrs())
	for i := range idx {
		idx[i] = i
		names[i] = s.Attrs[i].Name
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Attrs[idx[a]].Card > s.Attrs[idx[b]].Card })
	g.filter = idx[:min(3, len(idx))]
	g.allCols = strings.Join(names, ", ")
	return g
}

func (g *stmtGen) cond(attr int) string {
	a := g.schema.Attrs[attr]
	return fmt.Sprintf("%s = %d", a.Name, g.rng.Intn(a.Card))
}

func (g *stmtGen) classify() stmt {
	conds := make([]string, len(g.filter))
	for i, a := range g.filter {
		conds[i] = g.cond(a)
	}
	return stmt{stmtClassify, fmt.Sprintf("SELECT CLASSIFY(%s, %s) FROM cases WHERE %s",
		modelName, g.allCols, strings.Join(conds, " AND "))}
}

func (g *stmtGen) count() stmt {
	cls := g.schema.Class.Name
	return stmt{stmtCount, fmt.Sprintf("SELECT %s, COUNT(*) FROM cases WHERE %s GROUP BY %s",
		cls, g.cond(g.filter[min(1, len(g.filter)-1)]), cls)}
}

// round draws one mixed round, shuffled by the seed.
func (g *stmtGen) round(opt dtree.Options) []stmt {
	out := []stmt{
		{stmtBuild, buildSQL(opt, "")},
		{stmtScore, "SCORE TABLE cases USING " + modelName},
	}
	for i := 0; i < pointsPerKind; i++ {
		out = append(out, g.classify(), g.count())
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixedRound sends one seeded round of statements down the single connection
// and checks each reply afterwards: builds against the oracle's shape, scores
// against its predictions, point statements against in-process Engine.Exec.
func (e *env) mixedRound(tr *tracer) (opResult, error) {
	script := e.gen.round(e.spec.opt)
	res := opResult{lat: make([]float64, len(script)), kinds: make([]stmtKind, len(script))}
	cells := make([][][]engine.Val, len(script))
	scores := make([][]int32, len(script))
	tr.begin("op")
	for i, st := range script {
		t0 := wallNow()
		var err error
		if st.kind == stmtScore {
			scores[i], _, err = e.scoreTable(tr)
		} else {
			cells[i], err = e.queryCells(tr, st.sql)
		}
		res.lat[i], res.kinds[i] = sinceSec(t0), st.kind
		if err != nil {
			tr.end()
			return opResult{}, fmt.Errorf("%s: %w", st.sql, err)
		}
	}
	tr.end()
	res.verify = func() int {
		failed := 0
		for i, st := range script {
			switch st.kind {
			case stmtBuild:
				failed += boolFail(e.statsMatch(cells[i]))
			case stmtScore:
				failed += boolFail(e.scoreMatches(scores[i]))
			default:
				want, err := e.srv.Engine().Exec(st.sql)
				failed += boolFail(err == nil && cellsEqual(cells[i], want.Rows))
			}
		}
		return failed
	}
	return res, nil
}

// statsMatch checks a BUILD TREE ... OUTPUT STATS reply against the oracle
// tree's shape.
func (e *env) statsMatch(rows [][]engine.Val) bool {
	got := map[string]int64{}
	for _, r := range rows {
		if len(r) == 2 {
			got[r[0].S] = r[1].I
		}
	}
	want := e.oracle.Stats()
	return got["nodes"] == int64(want.Nodes) && got["leaves"] == int64(want.Leaves) && got["max_depth"] == int64(want.Depth)
}

func cellsEqual(a, b [][]engine.Val) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
