package mw_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestTagsInvisible: walking each row from its tag's class is, to every
// observer, walking it from the root. Over census unstaged at GOMAXPROCS 1 and
// 2, keyset access, no filter pushdown, a 6 KB budget that sheds requests
// and falls back to SQL, and a cohort of
// three sessions sharing their scans, every tree equals dtree.BuildInMemory's
// and the clock, the counters and the trace export are byte-identical to the
// same build with tags off. Every set-up must really have walked rows by their
// tags, and bucketed some by a pair select.
func TestTagsInvisible(t *testing.T) {
	ds, opt := segmentsShape(t)
	want, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer mw.SetTagsOff(mw.SetTagsOff(false))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type setup struct {
		name  string
		cfg   mw.Config
		procs int
		tight bool
	}
	var setups []setup
	for _, procs := range []int{1, 2} {
		setups = append(setups, setup{name: fmt.Sprintf("census/procs=%d", procs), procs: procs})
	}
	setups = append(setups,
		setup{name: "keyset", cfg: mw.Config{Access: mw.AccessKeyset, AuxThreshold: 0.6}, procs: 2},
		setup{name: "no-pushdown", cfg: mw.Config{NoFilterPushdown: true}, procs: 2},
		setup{name: "tight", cfg: mw.Config{Memory: 6 << 10}, procs: 2, tight: true},
	)
	var fallbacks, requeued int64
	for _, su := range setups {
		t.Run(su.name, func(t *testing.T) {
			runtime.GOMAXPROCS(su.procs)
			var runs [2]segmentRun
			scans, pairs := mw.TaggedScans(""), mw.PairRows()
			for i, off := range []bool{false, true} {
				mw.SetTagsOff(off)
				runs[i] = runSegmentBuild(t, ds, su.cfg, opt)
				if !dtree.Equal(runs[i].tree, want) {
					t.Fatalf("GOMAXPROCS=%d tags off=%v: tree differs from the in-memory build", su.procs, off)
				}
			}
			mw.SetTagsOff(false)
			on, off := runs[0], runs[1]
			if on.now != off.now || on.counters != off.counters {
				t.Errorf("GOMAXPROCS=%d: clock %d counters %v, tags off: %d %v", su.procs, on.now, on.counters, off.now, off.counters)
			}
			if !bytes.Equal(on.chrome, off.chrome) {
				t.Errorf("GOMAXPROCS=%d: trace export differs from the build with tags off", su.procs)
			}
			if mw.TaggedScans("") == scans || mw.PairRows() == pairs {
				t.Errorf("%d tagged scans bucketed %d rows by a pair select", mw.TaggedScans("")-scans, mw.PairRows()-pairs)
			}
			if su.tight {
				fallbacks, requeued = fallbacks+on.fallback, requeued+int64(on.requeued)
			}
		})
	}
	if fallbacks == 0 || requeued == 0 {
		t.Errorf("under the 6 KB budget %d requests fell back and %d were shed: it no longer forces both", fallbacks, requeued)
	}
	t.Run("cohort", func(t *testing.T) {
		var runs [2]cohortRun
		scans, pairs := mw.TaggedScans(""), mw.PairRows()
		for i, off := range []bool{false, true} {
			mw.SetTagsOff(off)
			runs[i] = runCohort(t, ds, opt, 3)
			for s, tree := range runs[i].trees {
				if !dtree.Equal(tree, want) {
					t.Fatalf("session %d, tags off=%v: tree differs from the in-memory build", s, off)
				}
			}
		}
		mw.SetTagsOff(false)
		on, off := runs[0], runs[1]
		for s := range on.now {
			if on.now[s] != off.now[s] || on.counters[s] != off.counters[s] {
				t.Errorf("session %d: clock %d counters %v, tags off: %d %v", s, on.now[s], on.counters[s], off.now[s], off.counters[s])
			}
		}
		if on.io != off.io || on.shared == 0 {
			t.Errorf("shared io counters %v (%d pages), tags off %v", on.io, on.shared, off.io)
		}
		if !bytes.Equal(on.chrome, off.chrome) {
			t.Error("trace export differs from the cohort with tags off")
		}
		if mw.TaggedScans("") == scans || mw.PairRows() == pairs {
			t.Errorf("%d tagged scans bucketed %d rows by a pair select", mw.TaggedScans("")-scans, mw.PairRows()-pairs)
		}
	})
}

// cohortRun is what one traced fleet run leaves: per session its tree, where
// its meter ended and its counters, the shared io meter's counters and pages,
// and the trace export.
type cohortRun struct {
	trees    []*dtree.Tree
	now      []int64
	counters []sim.CounterVec
	io       sim.CounterVec
	shared   int64
	chrome   []byte
}

// runCohort builds n trees over ds as a fleet of sessions sharing their
// server scans.
func runCohort(t *testing.T, ds *data.Dataset, opt dtree.Options, n int) cohortRun {
	t.Helper()
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewTrace()
	f, err := serve.NewFleet(srv, col, serve.FleetConfig{ScanSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	for range n {
		if _, err := f.Open("", opt, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var out cohortRun
	for _, s := range f.Sessions() {
		out.trees = append(out.trees, s.Tree())
		out.now = append(out.now, int64(s.Meter().Now()))
		out.counters = append(out.counters, s.Meter().CounterVec())
	}
	out.io, out.shared = f.IOMeter().CounterVec(), f.IOMeter().Count(sim.CtrServerPages)
	var chrome bytes.Buffer
	if err := col.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	out.chrome = chrome.Bytes()
	return out
}

// TestStageTagsInvisible: a stage keeps its rows' tags, and a scan of it walks
// each row from its tag, invisibly. Over census staged to files only, to
// memory only, to both, and to memory under a budget that drops tees, at
// GOMAXPROCS 1 and 4, every batch over a stage walks its rows by their tags,
// every level from the second reads a stage and buckets rows of it by a pair
// select, every live
// stage's rows fit their tags after every Step, and the tree, the clock and
// every counter equal the same build's with tags off.
func TestStageTagsInvisible(t *testing.T) {
	ds, opt := segmentsShape(t)
	want, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer mw.SetTagsOff(mw.SetTagsOff(false))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	setups := []struct {
		name  string
		cfg   mw.Config
		tight bool
	}{
		{name: "file", cfg: mw.Config{Staging: mw.StageFileOnly}},
		{name: "memory", cfg: mw.Config{Staging: mw.StageMemoryOnly}},
		{name: "file+memory", cfg: mw.Config{Staging: mw.StageFileAndMemory}},
		{name: "tight", cfg: mw.Config{Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 12}, tight: true},
	}
	for _, procs := range []int{1, 4} {
		for _, su := range setups {
			t.Run(fmt.Sprintf("%s/procs=%d", su.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				var runs [2]stageRun
				for i, off := range []bool{false, true} {
					mw.SetTagsOff(off)
					runs[i] = runStagedSteps(t, ds, su.cfg, opt)
					if !dtree.Equal(runs[i].tree, want) {
						t.Fatalf("tags off=%v: tree differs from the in-memory build", off)
					}
				}
				mw.SetTagsOff(false)
				on, off := runs[0], runs[1]
				if on.tree.Dump() != off.tree.Dump() {
					t.Error("tree dump differs from the build with tags off")
				}
				if on.now != off.now || on.counters != off.counters {
					t.Errorf("clock %d counters %v, tags off: %d %v", on.now, on.counters, off.now, off.counters)
				}
				if on.stageBatches == 0 || on.untagged > 0 {
					t.Errorf("%d of %d batches over a stage walked their rows untagged", on.untagged, on.stageBatches)
				}
				if on.stageRows == 0 {
					t.Error("no stage row was checked against its tag")
				}
				for depth := 1; depth <= opt.MaxDepth-1; depth++ {
					if on.pairs[depth] == 0 {
						t.Errorf("level %d's stage batches bucketed no row by a pair select (by depth: %v)", depth+1, on.pairs)
					}
				}
				if su.tight && on.dropped == 0 {
					t.Error("the budget dropped no memory tee")
				}
			})
		}
	}
}

// stageRun is what one staged build, stepped by hand, leaves: its tree, where
// its meter ended and its counters; the batches that read a stage and how many
// of them walked their rows untagged; by the depth of their nodes, the rows
// those batches bucketed by a pair select; the stage rows checked against their
// tags after each Step; and the memory tees a budget dropped.
type stageRun struct {
	tree                   *dtree.Tree
	now                    int64
	counters               sim.CounterVec
	stageBatches, untagged int
	pairs                  map[int]int64
	stageRows, dropped     int64
}

func runStagedSteps(t *testing.T, ds *data.Dataset, cfg mw.Config, opt dtree.Options) stageRun {
	t.Helper()
	meter := sim.NewDefaultMeter()
	srv, err := engine.NewServer(engine.New(meter, 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	m, err := mw.New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bld, err := dtree.NewBuilder(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	run := stageRun{pairs: map[int]int64{}}
	dropped := mw.TeesDropped()
	for bld.Pending() > 0 {
		scans, pairs := mw.TaggedScans(""), mw.PairRows()
		results, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		n, err := mw.StageTagRows(m)
		if err != nil {
			t.Fatal(err)
		}
		run.stageRows += n
		for _, res := range results {
			if res.Source == "file" || res.Source == "memory" {
				run.stageBatches++
				if mw.TaggedScans("") == scans {
					run.untagged++
				}
				run.pairs[len(res.Req.Path)] += mw.PairRows() - pairs
				break
			}
		}
		if err := bld.Feed(results); err != nil {
			t.Fatal(err)
		}
	}
	if run.tree, err = bld.Finish(); err != nil {
		t.Fatal(err)
	}
	run.now, run.counters, run.dropped = int64(meter.Now()), meter.CounterVec(), mw.TeesDropped()-dropped
	return run
}
