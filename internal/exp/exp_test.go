package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// golden is the committed record of every runner's Markdown at scale 1,
// regenerated by goldenCmd (run from the repository root).
const (
	golden    = "testdata/scale1.md"
	goldenCmd = "go run ./cmd/experiments -out internal/exp/testdata/scale1.md"
)

// TestAllShapeChecksPass runs every experiment once, at scale 1 — the scale
// each shape check is calibrated at — validates its output structure and its
// machine-checkable shape (checks.go holds the paper's qualitative claims,
// one per figure), and compares the rendered tables, seconds and counters,
// with the committed golden file. The runs share the memoized datasets, so
// the comparison also pins that the harness is deterministic in process.
func TestAllShapeChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	// A middleware stages under the OS temp dir unless its Config names one:
	// give the runners a temp dir of their own, so a middleware a runner
	// never closes shows up as the staging directory it leaves behind.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var got strings.Builder
	for _, r := range Runners() {
		if _, ok := checks[r.ID]; !ok {
			t.Errorf("%s: no shape check registered", r.ID)
			continue
		}
		e, err := r.Run(nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
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
		if err := Check(e); err != nil {
			t.Errorf("%s: shape check failed: %v", r.ID, err)
		}
		got.WriteString(e.Markdown())
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "mwstage-*")); len(left) > 0 {
		t.Errorf("the runners left %d staging directories behind (a middleware never closed): %v", len(left), left)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; regenerate with: %s", err, goldenCmd)
	}
	if diff := firstDiff(string(want), got.String()); diff != "" {
		t.Errorf("the experiments no longer print %s (%s); if the change is intended, regenerate with: %s",
			golden, diff, goldenCmd)
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
// smallest scale whose cohorts still share scans, and the serving and scoring
// experiments at quarter scale, each through its shape check. It does NOT
// skip under -short, so a `-race -short` pass executes the serve runner's real goroutines — fleet sessions attached
// to one shared scan — and the runner itself errors if any session grows a
// different tree.
func TestServeRunnerTiny(t *testing.T) {
	for _, tc := range []struct {
		id    string
		scale float64
	}{
		{"serve", 0.05},
		{"serve", 0.25},
		{"scoring", 0.25},
	} {
		t.Run(fmt.Sprintf("%s/%g", tc.id, tc.scale), func(t *testing.T) {
			r, _ := Get(tc.id)
			e, err := r.Run(nil, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(e); err != nil {
				t.Error(err)
			}
		})
	}
}

// firstDiff describes the first line where got departs from want, or returns
// "" when they are equal.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl || i >= len(w) || i >= len(g) {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
}
