package mw_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// segmentsShape is the table the segment tests build over: 8 row groups of
// census rows, so a scan of the whole table runs as
// min(GOMAXPROCS, 8/4) = 2 segments on two cores or more.
func segmentsShape(t *testing.T) (*data.Dataset, dtree.Options) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 8 * storage.RowGroupSize, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds, dtree.Options{MaxDepth: 5, MinRows: 40}
}

// segmentRun is what one traced build leaves: its tree, where its meter ended,
// its trace export, how many passes ran as segments, and how many requests fell
// back to SQL or were shed back to the queue.
type segmentRun struct {
	tree     *dtree.Tree
	now      int64
	counters sim.CounterVec
	chrome   []byte
	segments int64
	fallback int64
	requeued int
}

func runSegmentBuild(t *testing.T, ds *data.Dataset, cfg mw.Config, opt dtree.Options) segmentRun {
	t.Helper()
	trace := obs.NewTrace()
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	eng.SetTracer(trace.Proc("build", meter))
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	m, err := mw.New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := mw.SegmentRuns()
	tree, err := dtree.Build(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	run := segmentRun{tree: tree, now: int64(meter.Now()), counters: meter.CounterVec(), chrome: chrome.Bytes(),
		segments: mw.SegmentRuns() - before, fallback: meter.Count(sim.CtrSQLFallbacks)}
	for _, rec := range mw.BatchRecords(trace) {
		run.requeued += rec.NRequeued
	}
	return run
}

// TestSegmentsInvisible: a pass run as segments on the host's cores is, to
// every observer, the pass run on one goroutine. Over four set-ups — census
// unstaged, file+memory staging (its tee-free memory batches split), a budget
// tight enough that the bound refuses segments and requests fall back or shed,
// and keyset access — at GOMAXPROCS 1, 2 and 4, every tree equals
// dtree.BuildInMemory's and the clock, the counters and the trace export are
// byte-identical across GOMAXPROCS. Segments must really have run in the
// unlimited set-ups, and never under the tight budget. The deprecated
// Config.Workers, which the benchmark still sets to 2, changes nothing.
func TestSegmentsInvisible(t *testing.T) {
	ds, opt := segmentsShape(t)
	want, err := dtree.BuildInMemory(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	setups := []struct {
		name      string
		cfg       mw.Config
		unlimited bool
	}{
		{"census", mw.Config{}, true},
		{"staged", mw.Config{Staging: mw.StageFileAndMemory}, true},
		{"tight", mw.Config{Staging: mw.StageFileAndMemory, Memory: 6 << 10}, false},
		{"keyset", mw.Config{Access: mw.AccessKeyset, AuxThreshold: 0.6}, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, su := range setups {
		t.Run(su.name, func(t *testing.T) {
			var segments, fallbacks int64
			var ref segmentRun
			for i, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := runSegmentBuild(t, ds, su.cfg, opt)
				segments += got.segments
				fallbacks += got.fallback
				if !dtree.Equal(got.tree, want) {
					t.Fatalf("GOMAXPROCS=%d: tree differs from the in-memory build", procs)
				}
				if i == 0 {
					ref = got
					continue
				}
				if got.now != ref.now || got.counters != ref.counters {
					t.Errorf("GOMAXPROCS=%d: clock %d counters %v, GOMAXPROCS=1: %d %v",
						procs, got.now, got.counters, ref.now, ref.counters)
				}
				if !bytes.Equal(got.chrome, ref.chrome) {
					t.Errorf("GOMAXPROCS=%d: trace export differs from GOMAXPROCS=1's", procs)
				}
			}
			switch {
			case su.unlimited && segments == 0:
				t.Error("no pass ran as segments")
			case !su.unlimited && segments > 0:
				t.Errorf("%d passes ran as segments under a budget that could police", segments)
			case !su.unlimited && fallbacks == 0:
				t.Error("no request fell back: the budget is no longer tight")
			}
		})
	}
	t.Run("deprecated-workers", func(t *testing.T) {
		runtime.GOMAXPROCS(2)
		one := runSegmentBuild(t, ds, mw.Config{Workers: 1}, opt)
		two := runSegmentBuild(t, ds, mw.Config{Workers: 2}, opt)
		if !dtree.Equal(two.tree, one.tree) || two.now != one.now || two.counters != one.counters || !bytes.Equal(two.chrome, one.chrome) {
			t.Errorf("Workers 2: clock %d counters %v, Workers 1: %d %v (or the tree or trace export differs)",
				two.now, two.counters, one.now, one.counters)
		}
	})
}

// TestPoolSharedAcrossSchemas: middlewares over different schemas — census
// rows, and tree data staged and unstaged — build concurrently and repeatedly,
// drawing counts tables, scan scratch and row tags from the one process-wide
// pool and handing them back at Close; the unstaged builds tag tables of
// 32,768 and 16,000 rows, so a tag state drawn for one table covers the other.
// Every tree equals dtree.BuildInMemory's, and afterwards nothing in the pool
// refers to a build that ended or holds spare code vectors.
func TestPoolSharedAcrossSchemas(t *testing.T) {
	census, copt := segmentsShape(t)
	tree, treeCfg, topt := stagedShape(t)
	type job struct {
		ds   *data.Dataset
		cfg  mw.Config
		opt  dtree.Options
		want *dtree.Tree
	}
	jobs := []*job{
		{ds: census, cfg: mw.Config{}, opt: copt},
		{ds: tree, cfg: treeCfg, opt: topt},
		{ds: tree, cfg: mw.Config{}, opt: topt},
	}
	if census.N() == tree.N() {
		t.Fatalf("both tables hold %d rows", census.N())
	}
	scans := mw.TaggedScans("")
	for _, j := range jobs {
		var err error
		if j.want, err = dtree.BuildInMemory(j.ds, j.opt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *job) {
			defer wg.Done()
			srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", j.ds)
			if err != nil {
				errs[i] = err
				return
			}
			for range 3 {
				m, err := mw.New(srv, j.cfg)
				if err != nil {
					errs[i] = err
					return
				}
				got, err := dtree.Build(m, j.opt)
				if cerr := m.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs[i] = err
					return
				}
				if !dtree.Equal(got, j.want) {
					t.Errorf("job %d: tree differs from the in-memory build", i)
					return
				}
			}
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if mw.TaggedScans("") == scans {
		t.Fatal("no build walked rows by their tags")
	}
	if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
		t.Fatalf("pooled scratch still holds %d references into closed builds: %v", len(leaks), leaks)
	}
}
