package exp

import (
	"strings"
	"testing"
)

// TestExperimentsDeterministic: the whole harness is seeded; running an
// experiment twice yields byte-identical output.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, id := range []string{"fig5a", "fig6", "sec5.2.5"} {
		r, ok := Get(id)
		if !ok {
			t.Fatalf("unknown id %s", id)
		}
		a, err := r.Run(nil, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Run(nil, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if a.Markdown() != b.Markdown() {
			t.Errorf("%s: two runs differ:\n%s\nvs\n%s", id, a.Markdown(), b.Markdown())
		}
	}
}

// TestScalingWorkersTiny runs the parallel-pipeline experiment at a tiny
// scale. Unlike the full-scale suites it does NOT skip under -short, so a quick
// race-detector pass (`go test -race -short ./...`; verify.sh races the full
// suite) still exercises the exp → mw multi-worker path; the runner itself errors if any
// worker count grows a different tree.
func TestScalingWorkersTiny(t *testing.T) {
	e, err := ScalingWorkers(nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(e.Series))
	}
	for _, s := range e.Series {
		if len(s.Points) != 4 {
			t.Fatalf("%s: got %d points, want 4 (workers 1,2,4,8)", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Seconds <= 0 {
				t.Errorf("%s workers=%g: non-positive time %v", s.Name, p.X, p.Seconds)
			}
		}
	}
}

// TestGetAndIDs covers the registry helpers.
func TestGetAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Runners()) {
		t.Fatal("IDs length mismatch")
	}
	if _, ok := Get("nope"); ok {
		t.Error("unknown id resolved")
	}
	for _, id := range ids {
		if _, ok := Get(id); !ok {
			t.Errorf("id %s not resolvable", id)
		}
	}
}

// TestAllShapeChecksPass runs every experiment once, at the calibrated
// scale, and validates its output structure and its machine-checkable shape
// (checks.go holds the paper's qualitative claims, one per figure). The
// exception is scaling, which runs at quarter scale: its sql-fallback arm at
// one worker pushes thousands of nodes' UNIONs through the general SQL
// executor and at 1.0 took nine tenths of this package's wall time, while
// 0.25 already separates every curve its check compares; and skew and
// columnar, whose tables are sized so that quarter scale — what verify.sh
// gates — still spans four row groups per lane at 8 workers. Full scale stays
// with cmd/experiments, which regenerates BENCH_parallel.json, BENCH_skew.json
// and BENCH_columnar.json.
func TestAllShapeChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	ran := 0
	for _, r := range Runners() {
		if _, ok := checks[r.ID]; !ok {
			t.Errorf("%s: no shape check registered", r.ID)
			continue
		}
		scale := 1.0 // the calibrated scale of EXPERIMENTS.md
		if r.ID == "scaling" || r.ID == "skew" || r.ID == "columnar" {
			scale = 0.25
		}
		e, err := r.Run(nil, scale)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		ran++
		if len(e.Series) == 0 {
			t.Errorf("%s: no series", e.ID)
		}
		for _, s := range e.Series {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: no points", e.ID, s.Name)
			}
			for _, p := range s.Points {
				if p.Seconds <= 0 {
					t.Errorf("%s/%s: non-positive time %v", e.ID, s.Name, p.Seconds)
				}
			}
		}
		if md := e.Markdown(); !strings.Contains(md, e.ID) {
			t.Errorf("%s: markdown missing id", e.ID)
		}
		if txt := e.Text(); !strings.Contains(txt, e.Title) {
			t.Errorf("%s: text missing title", e.ID)
		}
		if err := Check(e); err != nil {
			t.Errorf("%s: shape check failed: %v", r.ID, err)
		}
	}
	if ran != len(Runners()) {
		t.Errorf("ran %d experiments, want %d", ran, len(Runners()))
	}

	// The runners share memoized datasets read-only: after every one of them
	// ran, each dataset must still be the one its generator produced.
	datasets.Lock()
	defer datasets.Unlock()
	if len(datasets.byConfig) == 0 {
		t.Error("no dataset was memoized")
	}
	for cfg, g := range datasets.byConfig {
		if fingerprint(g.ds) != g.sum {
			t.Errorf("a runner mutated the shared dataset of %+v", cfg)
		}
	}
}

// TestServeRunnerTiny runs the multi-tenant serving experiment at the
// smallest scale whose cohorts still share scans. Like TestScalingWorkersTiny
// it does NOT skip under -short, so a `-race -short` pass executes the serve
// runner's real goroutines — fleet sessions attached to one shared scan —
// and the runner itself errors if any session grows a different tree.
func TestServeRunnerTiny(t *testing.T) {
	e, err := ServeFleet(nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := checks["serve"](e); err != nil {
		t.Error(err)
	}
}
