package mw_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
)

// TestDerivedInvisible: a counts table derived as its parent's less its
// siblings' is, to every observer, the table counted from rows. Over census
// unstaged at GOMAXPROCS 1 and 2, keyset access, no filter
// pushdown, a 6 KB budget that sheds requests and falls back to SQL, tree data
// staged to files and memory, and a cohort of three sessions sharing their
// scans, every tree equals dtree.BuildInMemory's and the clock, the counters
// (cc_updates and cc_folds included) and the trace export are byte-identical
// to the same build with derivation off. Derivation must really have fired in
// the census builds and in a batch reading staged memory, and never under the
// budget that polices, or in the shared cohort.
// Afterwards nothing in the pool refers to a build that ended.
func TestDerivedInvisible(t *testing.T) {
	census, copt := segmentsShape(t)
	staged, stagedCfg, sopt := stagedShape(t)
	wants := map[*data.Dataset]*dtree.Tree{}
	for _, c := range []struct {
		ds  *data.Dataset
		opt dtree.Options
	}{{census, copt}, {staged, sopt}} {
		want, err := dtree.BuildInMemory(c.ds, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		wants[c.ds] = want
	}
	defer mw.SetDeriveOff(mw.SetDeriveOff(false))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type setup struct {
		name   string
		ds     *data.Dataset
		opt    dtree.Options
		cfg    mw.Config
		procs  int
		source string // derivation must fire in a batch reading it
		never  bool   // derivation must not fire
		tight  bool
	}
	var setups []setup
	for _, procs := range []int{1, 2} {
		setups = append(setups, setup{name: fmt.Sprintf("census/procs=%d", procs), ds: census, opt: copt,
			procs: procs, source: "server"})
	}
	setups = append(setups,
		setup{name: "keyset", ds: census, opt: copt, cfg: mw.Config{Access: mw.AccessKeyset, AuxThreshold: 0.6}, procs: 2},
		setup{name: "no-pushdown", ds: census, opt: copt, cfg: mw.Config{NoFilterPushdown: true}, procs: 2},
		setup{name: "tight", ds: census, opt: copt, cfg: mw.Config{Memory: 6 << 10}, procs: 2, never: true, tight: true},
		setup{name: "staged", ds: staged, opt: sopt, cfg: stagedCfg, procs: 2, source: "memory"},
	)
	var fallbacks, requeued int64
	for _, su := range setups {
		t.Run(su.name, func(t *testing.T) {
			runtime.GOMAXPROCS(su.procs)
			var runs [2]segmentRun
			nodes, _ := mw.Derived("")
			fromSource, _ := mw.Derived(su.source)
			for i, off := range []bool{false, true} {
				mw.SetDeriveOff(off)
				runs[i] = runSegmentBuild(t, su.ds, su.cfg, su.opt)
				if !dtree.Equal(runs[i].tree, wants[su.ds]) {
					t.Fatalf("derivation off=%v: tree differs from the in-memory build", off)
				}
			}
			mw.SetDeriveOff(false)
			on, off := runs[0], runs[1]
			if on.now != off.now || on.counters != off.counters {
				t.Errorf("clock %d counters %v, derivation off: %d %v", on.now, on.counters, off.now, off.counters)
			}
			if !bytes.Equal(on.chrome, off.chrome) {
				t.Error("trace export differs from the build with derivation off")
			}
			after, _ := mw.Derived("")
			afterSource, _ := mw.Derived(su.source)
			switch {
			case su.never && after != nodes:
				t.Errorf("%d nodes derived", after-nodes)
			case su.source != "" && afterSource == fromSource:
				t.Errorf("no node derived in a batch reading %s", su.source)
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
		nodes, _ := mw.Derived("")
		for i, off := range []bool{false, true} {
			mw.SetDeriveOff(off)
			runs[i] = runCohort(t, census, copt, 3)
			for s, tree := range runs[i].trees {
				if !dtree.Equal(tree, wants[census]) {
					t.Fatalf("session %d, derivation off=%v: tree differs from the in-memory build", s, off)
				}
			}
		}
		mw.SetDeriveOff(false)
		on, off := runs[0], runs[1]
		for s := range on.now {
			if on.now[s] != off.now[s] || on.counters[s] != off.counters[s] {
				t.Errorf("session %d: clock %d counters %v, derivation off: %d %v", s, on.now[s], on.counters[s], off.now[s], off.counters[s])
			}
		}
		if on.io != off.io || on.shared == 0 {
			t.Errorf("shared io counters %v (%d pages), derivation off %v", on.io, on.shared, off.io)
		}
		if !bytes.Equal(on.chrome, off.chrome) {
			t.Error("trace export differs from the cohort with derivation off")
		}
		if after, _ := mw.Derived(""); after != nodes {
			t.Errorf("%d nodes derived in the shared cohort", after-nodes)
		}
	})
	if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
		t.Fatalf("pooled scratch still holds %d references into closed builds: %v", len(leaks), leaks)
	}
}

// TestDerivedAllocatesNoMore: an untraced census build on one
// core, its pool warm, allocates no more bytes deriving tables than counting
// every one of them. The pool starts empty, and warm takes a few builds: a
// derived child takes over its parent's table, so table storage rotates between
// node sizes until every pooled table has grown once — from empty, the 15th
// build is the last to grow one — and the first ten builds of each kind go
// unmeasured. No collection runs while the test does: the runtime's post-GC
// cleanup goroutine (package unique) allocates 48 bytes after every cycle,
// which TotalAlloc would charge to whichever build the cycle fell in.
func TestDerivedAllocatesNoMore(t *testing.T) {
	ds, opt := segmentsShape(t)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	defer mw.SetDeriveOff(mw.SetDeriveOff(false))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mw.EmptyPool()
	runtime.GC()
	build := func(off bool) uint64 {
		mw.SetDeriveOff(off)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := mw.New(srv, mw.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dtree.Build(m, opt); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var on, off uint64
	for i := range 13 {
		a, b := build(false), build(true)
		if i >= 10 {
			on, off = on+a, off+b
		}
	}
	if on > off {
		t.Fatalf("three builds allocate %d bytes deriving, %d counting", on, off)
	}
}

// TestDerivationFloor: a build of the cmd/bench build_scan shape — 100k census
// rows, seed 1, MaxDepth 8, MinRows 50, unstaged — derives at least
// 80 of its nodes' tables, holding at least 500k of the rows it would count,
// and grows dtree.BuildInMemory's tree.
func TestDerivationFloor(t *testing.T) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := dtree.Options{MaxDepth: 8, MinRows: 50}
	want, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nodes, rows := mw.Derived("")
	got, err := dtree.Build(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !dtree.Equal(got, want) {
		t.Fatal("tree differs from the in-memory build")
	}
	afterNodes, afterRows := mw.Derived("")
	if n, r := afterNodes-nodes, afterRows-rows; n < 80 || r < 500000 {
		t.Fatalf("derived %d nodes holding %d rows, want at least 80 and 500000", n, r)
	}
}
