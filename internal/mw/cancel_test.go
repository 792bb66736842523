package mw_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// TestCancelledScanLeavesPoolClean: once a build's middleware has closed and
// handed its scan scratch to the process pool, a block scan of the same table
// cancelled mid-table and a §4.1.1 counts statement on the cancelled context
// both return context.Canceled, the pool holds nothing of any of them, and a
// fresh build over the same data still grows the reference tree.
func TestCancelledScanLeavesPoolClean(t *testing.T) {
	ds, opt := segmentsShape(t)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	want := refBuild(ds, opt)
	build := func() {
		t.Helper()
		m, err := mw.New(srv, mw.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := dtree.Build(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sameNode("root", tree.Root, want.Root); err != nil {
			t.Fatal(err)
		}
	}
	build()

	ctx, cancel := context.WithCancel(context.Background())
	blocks := 0
	cons := &engine.ScanConsumer{Filter: predicate.MatchAll(), Meter: srv.Meter(), Fn: func(*engine.ColBlock) bool {
		if blocks++; blocks == 2 {
			cancel()
		}
		return true
	}}
	err = engine.ScanGroups(ctx, srv.ColGroups(nil), []*engine.ScanConsumer{cons}, 0, srv.NumColGroups(), srv.Meter())
	if !errors.Is(err, context.Canceled) || blocks != 2 {
		t.Fatalf("scan cancelled after block 2: %d blocks, error %v; want 2 and context.Canceled", blocks, err)
	}
	counts := mw.CountsSQL(ds.Schema, "cases", nil, []int{0, 1, 2})
	if _, err := srv.Engine().ExecContext(ctx, counts); !errors.Is(err, context.Canceled) {
		t.Fatalf("counts statement on a cancelled context: %v, want context.Canceled", err)
	}
	if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
		t.Errorf("the pool holds %d references after the cancelled scans: %v", len(leaks), leaks)
	}
	build()
}

// tripCtx is a context whose Err reports context.Canceled from check after+1
// on (never, with after < 0), counting every check: an untripped build says
// how many checks — one per block scanned — it makes, and which of them (aux,
// 1-based) a §4.3.3 build's qualifying scan made.
type tripCtx struct {
	context.Context
	after  int64
	checks atomic.Int64

	mu  sync.Mutex
	aux []int64
}

func (c *tripCtx) Err() error {
	n := c.checks.Add(1)
	if c.after < 0 && inAuxScan() {
		c.mu.Lock()
		c.aux = append(c.aux, n)
		c.mu.Unlock()
	}
	if c.after >= 0 && n > c.after {
		return context.Canceled
	}
	return nil
}

// inAuxScan reports whether the caller runs inside the qualifying scan of a
// keyset, TID-table or copy-table build (engine's Server.captureScan).
func inAuxScan() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "engine.(*Server).captureScan") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestCancelledBuildLeavesNothing: every block a build scans — its passes,
// their segments, its §4.1.1 statements and its §4.3.3 keyset, TID-table and
// copy-table builds — checks the build's context, and a build whose context
// trips at a sampled block — unstaged, staged, under a budget tight enough for
// §4.1.1 statements, and through each auxiliary structure, at GOMAXPROCS 1 and
// 4; with an auxiliary structure, one sampled block lies inside its build's
// qualifying scan — returns context.Canceled through dtree.BuildContext with
// no tree and every span of every proc ended; after Close its staging dir is
// empty, the engine holds no temp table and the pool holds nothing of it, and
// a fresh build over the same data still grows refBuild's tree.
func TestCancelledBuildLeavesNothing(t *testing.T) {
	ds, opt := segmentsShape(t)
	want := refBuild(ds, opt)
	build := func(t *testing.T, ctx context.Context, cfg mw.Config) (*dtree.Tree, *sim.Meter, int, error) {
		t.Helper()
		col, meter := obs.NewTrace(), sim.NewDefaultMeter()
		eng := engine.New(meter, 0)
		tr := col.Proc("build", meter)
		eng.SetTracer(tr)
		srv, err := engine.NewServer(eng, "cases", ds)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Dir = t.TempDir()
		m, err := mw.New(srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := dtree.BuildContext(ctx, m, opt)
		probe := tr.Start(obs.CatBatch, "probe")
		if probe.End(); probe.Parent != 0 {
			t.Errorf("a span opened after the build has parent %d: the build left a span open", probe.Parent)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if entries, err := os.ReadDir(cfg.Dir); err != nil || len(entries) != 0 {
			t.Errorf("staging dir after Close: %v (err %v)", entries, err)
		}
		if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
			t.Errorf("the pool holds %d references into the closed build: %v", len(leaks), leaks)
		}
		if tables := eng.TableNames(); len(tables) != 1 {
			t.Errorf("tables after Close: %v, want only the base table", tables)
		}
		aux := 0
		col.EachProc(func(p obs.ProcView) {
			for _, sp := range p.Spans {
				if sp.Cat == obs.CatAux {
					aux++
				}
				if sp.Deltas == nil {
					t.Errorf("%s: span %d %s/%s never ended", p.Name, sp.ID, sp.Cat, sp.Name)
				}
			}
		})
		return tree, meter, aux, err
	}
	same := func(t *testing.T, tree *dtree.Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameNode("root", tree.Root, want.Root); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 4} {
		for _, c := range []struct {
			name string
			cfg  mw.Config
		}{
			{"unstaged", mw.Config{}},
			{"staged", mw.Config{Staging: mw.StageFileAndMemory}},
			{"tight", mw.Config{Staging: mw.StageFileAndMemory, Memory: 6 << 10}},
			// Batches of at most four nodes fall below the 10 % threshold.
			{"keyset", mw.Config{Access: mw.AccessKeyset, MaxBatch: 4}},
			{"tid-join", mw.Config{Access: mw.AccessTIDJoin, MaxBatch: 4}},
			{"copy-table", mw.Config{Access: mw.AccessCopyTable, MaxBatch: 4}},
		} {
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				count := &tripCtx{Context: context.Background(), after: -1}
				tree, meter, aux, err := build(t, count, c.cfg)
				same(t, tree, err)
				if (c.cfg.Access != mw.AccessScan) != (aux > 0) {
					t.Fatalf("access %v built %d auxiliary structures", c.cfg.Access, aux)
				}
				total := count.checks.Load()
				if blocks := meter.Count(sim.CtrColBlocks); total != blocks || total == 0 {
					t.Fatalf("the build checked its context %d times over %d blocks, want once per block", total, blocks)
				}
				if (aux > 0) != (len(count.aux) > 0) {
					t.Fatalf("%d auxiliary structures, %d checks inside their qualifying scans", aux, len(count.aux))
				}
				rng := rand.New(rand.NewSource(total))
				trips := []int64{0, rng.Int63n(total), rng.Int63n(total), rng.Int63n(total), total - 1}
				if len(count.aux) > 0 {
					trips = append(trips, count.aux[rng.Intn(len(count.aux))]-1)
				}
				for _, n := range trips {
					tree, _, _, err := build(t, &tripCtx{Context: context.Background(), after: n}, c.cfg)
					if !errors.Is(err, context.Canceled) || tree != nil {
						t.Fatalf("tripped after %d of %d checks: tree %v, error %v; want none and context.Canceled", n, total, tree != nil, err)
					}
				}
				tree, _, _, err = build(t, context.Background(), c.cfg)
				same(t, tree, err)
			})
		}
	}
}
