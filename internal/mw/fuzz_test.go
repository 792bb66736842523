package mw_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/serve"
	"repro/internal/sim"
)

// fuzzTable generates the table of one FuzzBuildConfig input: 1–8 attributes,
// 2–4 classes and up to 300 rows drawn from seed. card 0 gives every
// attribute its own cardinality (1, 2, 4, 16 or all-distinct); any other card
// is every attribute's cardinality, and a column whose cardinality reaches the
// row count is all-distinct, a permutation of the rows. Most classes follow a
// weighted sum of the attributes, so the trees split.
func fuzzTable(seed uint64, attrs, classes uint8, rows uint16, card uint16) *data.Dataset {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(rows % 301)
	s := &data.Schema{Class: data.Attribute{Name: "class", Card: 2 + int(classes%3)}}
	for a := range 1 + int(attrs%8) {
		c := int(card)
		if c == 0 {
			c = []int{1, 2, 4, 16, 1 << 15}[rng.Intn(5)]
		}
		s.Attrs = append(s.Attrs, data.Attribute{Name: fmt.Sprintf("A%d", a+1), Card: c})
	}
	ds := data.NewDataset(s)
	for range n {
		ds.Rows = append(ds.Rows, make(data.Row, s.NumCols()))
	}
	weights := make([]int, len(s.Attrs))
	for a, at := range s.Attrs {
		weights[a] = rng.Intn(3)
		var perm []int
		if at.Card >= n {
			perm = rng.Perm(n)
		}
		for i, r := range ds.Rows {
			if perm != nil {
				r[a] = data.Value(perm[i])
			} else {
				r[a] = data.Value(rng.Intn(at.Card))
			}
		}
	}
	for _, r := range ds.Rows {
		c := rng.Intn(s.Class.Card)
		if rng.Intn(4) > 0 {
			c = 0
			for a, w := range weights {
				c += w * int(r[a])
			}
		}
		r[s.ClassIndex()] = data.Value(c % s.Class.Card)
	}
	return ds
}

// fuzzConfig decodes the middleware configuration and build options of one
// input from conf's 13 low bits: staging mode, server access, a memory
// budget from unlimited through ones that stage everything to one under two
// counts-table entries that sends every node to the SQL fallback, the
// measure, binary or multiway splits and MaxDepth.
func fuzzConfig(conf uint16, bytes int64) (mw.Config, dtree.Options) {
	cfg := mw.Config{
		Staging: mw.StagingMode(conf & 3),
		Access:  mw.ServerAccess(conf >> 2 & 3),
		Memory:  []int64{0, 4 * bytes, bytes / 4, bytes / 16, 12 << 10, 1 << 10, 64, 0}[conf>>4&7],
	}
	opt := dtree.Options{
		Measure:  []dtree.Measure{dtree.Entropy, dtree.Gini, dtree.GainRatio, dtree.Entropy}[conf>>7&3],
		MaxDepth: int(conf >> 10 & 7),
	}
	if conf>>9&1 == 1 {
		opt.Split = dtree.MultiwaySplit
	}
	return cfg, opt
}

// FuzzBuildConfig grows a tree through the middleware over a generated table
// of fuzzed shape under a fuzzed configuration and judges it by the reference
// builder: every input grows the reference tree, node for node. Every input
// is a valid table and configuration, so an error fails it as a panic would.
// After Close, the staging directory is empty and the process pool holds
// nothing of the build. The seed corpus (testdata/fuzz/FuzzBuildConfig) holds an empty, a
// one-row, a single-value and an all-distinct table; the draws added below
// sample the rest.
func FuzzBuildConfig(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	for range 24 {
		f.Add(rng.Uint64(), uint8(rng.Intn(8)), uint8(rng.Intn(3)), uint16(rng.Intn(301)), uint16(rng.Intn(3)*rng.Intn(20)), uint16(rng.Intn(1<<13)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, attrs, classes uint8, rows, card, conf uint16) {
		ds := fuzzTable(seed, attrs, classes, rows, card)
		cfg, opt := fuzzConfig(conf, ds.Bytes())
		got, _ := buildThrough(t, ds, cfg, opt)
		if err := sameNode("root", got.Root, refBuild(ds, opt).Root); err != nil {
			t.Errorf("%+v %+v: %v", cfg, opt, err)
		}
		if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
			t.Errorf("%+v: the pool still holds %d references into the closed build: %v", cfg, len(leaks), leaks)
		}
	})
}

// fleetSeeds is FuzzFleetSchedule's seed corpus: five cohorts over tables of
// fuzzTable(seed, seed, seed>>1, rows, 0). In the third, session 2 is
// cancelled at the run's second check of its context — the first block of
// the first shared scan — and in the fourth the run's own context ends there.
var fleetSeeds = []struct {
	seed uint64
	rows uint16
	s    fleetSchedule
}{
	{11, 300, fleetSchedule{n: 4, score: [6]int{3: 1}, sharing: 1, staging: int(mw.StageFileAndMemory), at: 1}},
	{12, 250, fleetSchedule{n: 5, score: [6]int{1: 1, 4: 1}, gap: [6]int{1: 1, 2: 3, 4: 2}, maxSessions: 2, sharing: 1, staging: int(mw.StageMemoryOnly), budget: 2, at: 1, maxDepth: 4}},
	{13, 300, fleetSchedule{n: 3, score: [6]int{2: 1}, sharing: 1, staging: int(mw.StageFileAndMemory), cancel: 2, at: 2}},
	{14, 280, fleetSchedule{n: 4, score: [6]int{0: 1}, sharing: 1, staging: int(mw.StageFileOnly), cancel: 7, at: 2}},
	{15, 200, fleetSchedule{n: 2, score: [6]int{1: 1}, gap: [6]int{1: 1}, staging: int(mw.StageFileOnly), cancel: 1, at: 5, maxDepth: 3}},
}

// TestFleetScheduleSeeds: FuzzFleetSchedule's seed cohorts decode to what they
// were encoded from, pass, and between them walk staged files and staged
// memory by their rows' tags inside fleets.
func TestFleetScheduleSeeds(t *testing.T) {
	file, mem := mw.TaggedScans("file"), mw.TaggedScans("memory")
	for i, c := range fleetSeeds {
		if got := decodeSchedule(c.s.encode()); got != c.s {
			t.Fatalf("seed %d: %+v decodes to %+v", i, c.s, got)
		}
		runFleetSchedule(t, fuzzTable(c.seed, uint8(c.seed), uint8(c.seed>>1), c.rows, 0), c.s)
	}
	if mw.TaggedScans("file") == file || mw.TaggedScans("memory") == mem {
		t.Errorf("the seed cohorts walked %d file and %d memory stages by their tags", mw.TaggedScans("file")-file, mw.TaggedScans("memory")-mem)
	}
}

// fleetSchedule is one FuzzFleetSchedule cohort, decoded from a uint64 in
// mixed radix (encode is the inverse): 1–6 sessions, each a build or a scorer
// (score 1) arriving 0–3 ms after the one before; the fleet's session cap,
// scan sharing (1: on), staging policy and, with a cap, its memory budget; at
// most one cancel point; and the builds' MaxDepth.
type fleetSchedule struct {
	n           int    // sessions, 1-6
	score       [6]int // per session: 1 a scorer, 0 a build
	gap         [6]int // per session: its arrival after the previous one's, in ms
	maxSessions int    // 0: uncapped
	sharing     int
	staging     int // an mw.StagingMode
	budget      int // with a cap: the fleet's TotalMemory, an index into fleetBudgets
	cancel      int // 0: none; 1-6: that session; 7: the run's own context
	at          int // the run's check of its context the cancel lands on, 1-16
	maxDepth    int
}

// fleetBudgets are the fleet memory budgets a capped schedule draws from,
// given the table's bytes: unlimited, roomy, a quarter of the table, and two
// that shed requests and fall back to SQL.
func fleetBudgets(bytes int64) []int64 { return []int64{0, 4 * bytes, bytes / 4, 12 << 10, 1 << 10} }

// digits returns the schedule's fields, in encoding order, each with its
// radix and the smallest value it holds: n and at count from 1.
func (s *fleetSchedule) digits() (fields []*int, radix, base []int) {
	add := func(f *int, r, b int) { fields, radix, base = append(fields, f), append(radix, r), append(base, b) }
	add(&s.n, 6, 1)
	for i := range 6 {
		add(&s.score[i], 2, 0)
		add(&s.gap[i], 4, 0)
	}
	add(&s.maxSessions, 4, 0)
	add(&s.sharing, 2, 0)
	add(&s.staging, 4, 0)
	add(&s.budget, 5, 0)
	add(&s.cancel, 8, 0)
	add(&s.at, 16, 1)
	add(&s.maxDepth, 5, 0)
	return fields, radix, base
}

func decodeSchedule(v uint64) fleetSchedule {
	var s fleetSchedule
	fields, radix, base := s.digits()
	for i, f := range fields {
		*f = base[i] + int(v%uint64(radix[i]))
		v /= uint64(radix[i])
	}
	return s
}

func (s fleetSchedule) encode() uint64 {
	fields, radix, base := s.digits()
	var v uint64
	for i := len(fields) - 1; i >= 0; i-- {
		v = v*uint64(radix[i]) + uint64(*fields[i]-base[i])
	}
	return v
}

// cancelPoint is a run context that, on the run's at-th check of it, cancels
// one session — or, with no victim, ends the run itself; at 0 it never does.
// A fleet checks its
// run's context on its own goroutine once per round and once per block of a
// shared scan, so the cancel lands at the same point of every run of a
// schedule.
type cancelPoint struct {
	context.Context
	calls, at int
	victim    *serve.Session
}

func (c *cancelPoint) Err() error {
	c.calls++
	switch {
	case c.at == 0 || c.calls < c.at:
	case c.victim == nil:
		return context.Canceled
	case c.calls == c.at:
		c.victim.Cancel()
	}
	return nil
}

// FuzzFleetSchedule runs a fuzzed cohort of builds and scorers through a
// fleet over a generated table (fuzzTable) and judges every session: each
// build that finished grows the reference tree node for node (refBuild), each
// scorer that finished predicts what Model.Predict does for every row, and a
// session cancelled — or a run whose own context ended — fails with
// context.Canceled. Whatever happened, every span of every session has ended
// and nests, the staging directory is empty, and the process pool holds
// nothing of the builds. The seed corpus is five cohorts: shared scans over
// file+memory stages, a capped and budgeted cohort over memory stages, a
// session cancelled in the middle of a shared scan, the run cancelled in one,
// and a solo schedule over file stages with a cancel late in it.
func FuzzFleetSchedule(f *testing.F) {
	for _, c := range fleetSeeds {
		f.Add(c.seed, uint8(c.seed), uint8(c.seed>>1), c.rows, uint16(0), c.s.encode())
	}
	f.Fuzz(func(t *testing.T, seed uint64, attrs, classes uint8, rows, card uint16, plan uint64) {
		runFleetSchedule(t, fuzzTable(seed, attrs, classes, rows, card), decodeSchedule(plan))
	})
}

// runFleetSchedule runs schedule s over ds and checks what FuzzFleetSchedule
// promises.
func runFleetSchedule(t *testing.T, ds *data.Dataset, s fleetSchedule) {
	opt := dtree.Options{MaxDepth: s.maxDepth}
	ref := refBuild(ds, opt)
	inMem, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dtree.Compile(inMem, "m")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.FleetConfig{Base: mw.Config{Staging: mw.StagingMode(s.staging), Dir: t.TempDir()}, MaxSessions: s.maxSessions, ScanSharing: s.sharing == 1}
	if s.maxSessions > 0 {
		cfg.TotalMemory = fleetBudgets(ds.Bytes())[s.budget]
	}
	col := obs.NewTrace()
	fl, err := serve.NewFleet(srv, col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arrival int64
	for i := range s.n {
		arrival += int64(s.gap[i]) * int64(time.Millisecond)
		if s.score[i] == 1 {
			_, err = fl.OpenScore("", model, 1, arrival)
		} else {
			_, err = fl.Open("", opt, arrival)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx := &cancelPoint{Context: context.Background()}
	switch {
	case s.cancel >= 1 && s.cancel <= s.n:
		ctx.at, ctx.victim = s.at, fl.Sessions()[s.cancel-1]
	case s.cancel == 7:
		ctx.at = s.at
	}
	runErr := fl.RunContext(ctx)
	if runErr != nil && (s.cancel != 7 || !errors.Is(runErr, context.Canceled)) {
		t.Fatalf("%+v: Run: %v", s, runErr)
	}
	for i, ss := range fl.Sessions() {
		cancelled := runErr != nil || ss.Err() != nil
		if ss.Err() != nil && (s.cancel != i+1 || !errors.Is(ss.Err(), context.Canceled)) {
			t.Errorf("%+v: session %d left with %v", s, ss.ID, ss.Err())
		}
		switch {
		case s.score[i] == 1 && cancelled:
			if err := ss.Score().Err(); err == nil {
				t.Errorf("%+v: cancelled scorer %d finished its result", s, ss.ID)
			}
		case s.score[i] == 1:
			if err := ss.Score().Err(); err != nil {
				t.Fatalf("%+v: scorer %d: %v", s, ss.ID, err)
			}
			for r, row := range ds.Rows {
				if got, want := ss.Score().Classes[r], model.Predict(row); got != want {
					t.Fatalf("%+v: scorer %d predicts %d for row %d, Model.Predict %d", s, ss.ID, got, r, want)
				}
			}
		case ss.Tree() != nil: // a run that failed keeps the trees finished before it did
			if ss.Err() != nil {
				t.Errorf("%+v: cancelled build %d has a tree", s, ss.ID)
			}
			if err := sameNode("root", ss.Tree().Root, ref.Root); err != nil {
				t.Errorf("%+v: build %d: %v", s, ss.ID, err)
			}
		case !cancelled:
			t.Errorf("%+v: build %d finished without a tree", s, ss.ID)
		}
	}
	checkSpansEnded(t, col)
	if entries, err := os.ReadDir(cfg.Base.Dir); err != nil || len(entries) != 0 {
		t.Errorf("%+v: staging dir after the run: %v (err %v)", s, entries, err)
	}
	if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
		t.Errorf("%+v: the pool still holds %d references into the closed builds: %v", s, len(leaks), leaks)
	}
}

// checkSpansEnded asserts, on every proc of col, that every span ended, that
// each child lies inside its parent, and that siblings, in start order, are
// disjoint.
func checkSpansEnded(t *testing.T, col *obs.Trace) {
	t.Helper()
	col.EachProc(func(pv obs.ProcView) {
		for _, s := range pv.Spans {
			if s.Deltas == nil {
				t.Errorf("%s: span %d %s/%s never ended", pv.Name, s.ID, s.Cat, s.Name)
			}
		}
	})
	var walk func(label string, sibs []*profile.Node, parent *profile.Node)
	walk = func(label string, sibs []*profile.Node, parent *profile.Node) {
		for i, n := range sibs {
			if parent != nil && (n.StartNS < parent.StartNS || n.EndNS() > parent.EndNS()) {
				t.Errorf("%s: span %d %s/%s [%d, %d) is not inside its parent [%d, %d)", label, n.ID, n.Cat, n.Name, n.StartNS, n.EndNS(), parent.StartNS, parent.EndNS())
			}
			if i > 0 && sibs[i-1].EndNS() > n.StartNS {
				t.Errorf("%s: sibling spans %d and %d overlap", label, sibs[i-1].ID, n.ID)
			}
			walk(label, n.Children, n)
		}
	}
	for _, p := range profile.Compute(col).Procs {
		walk(p.Label, p.Roots, nil)
	}
}
