package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const benchmarkJSON = "../../BENCHMARK.json"

// benchmarkFile is BENCHMARK.json in full, for validating its shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks the declaration against the limits the benchmark
// contract sets and against the workloads the runner knows.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkFile(t)
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(specs) {
		t.Fatalf("%d workloads declared, runner has %d (limit 2..8)", n, len(specs))
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", b.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, runner has %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		name(m.Name)
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// requires every output to pass the oracle and the printed metrics to be
// exactly the declared ones, units included.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the middleware stages under os.TempDir()
	defer func(w float64) { refWork = w }(refWork)
	refWork = 0.01
	b := readBenchmarkFile(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", s.name, trace), func(t *testing.T) {
				// 4000 rows: below about 3000 the staged workload's memory budget
				// (a quarter of the data) is smaller than one counts table.
				o := options{seed: 3, seconds: 0.2, rows: 4000, trace: trace, probe: probeBudget{minDur: time.Millisecond, minReps: 1}}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
					o.traceOut = filepath.Join(t.TempDir(), "spans.ndjson")
				}
				rec, err := runWorkload(s, o)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("%d of %d requests failed", rec.Failed, rec.Attempted)
				}
				declared := map[string]bool{}
				for _, m := range want {
					declared[m.Name] = true
					got, ok := rec.Metrics[m.Name]
					if !ok {
						t.Errorf("declared metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s printed in %q, declared in %q", m.Name, got.Unit, m.Unit)
					}
				}
				for _, n := range sortedKeys(rec.Metrics) {
					if !declared[n] {
						t.Errorf("printed metric %s not declared", n)
					}
				}
				if trace {
					if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
						t.Errorf("no span file written: %v", err)
					}
				}
			})
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "x", Better: "lower", Bound: 0.10}
	steady := newSide([]float64{100, 101, 99, 100, 102})
	for _, c := range []struct {
		name string
		b    []float64
		self bool
		want string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, false, "ok"},
		{"slower beyond the bound", []float64{120, 121, 119, 120, 122}, false, "REGRESSED"},
		{"faster beyond the spread", []float64{80, 81, 79, 80, 82}, false, "improved"},
		{"too noisy to tell", []float64{70, 130, 100, 85, 115}, false, "unresolved"},
		{"noisy but every run slower", []float64{150, 250, 200, 170, 230}, false, "REGRESSED"},
		{"two sets agree", []float64{103, 104, 102, 103, 105}, true, "agree"},
		{"two sets differ", []float64{80, 81, 79, 80, 82}, true, "DISAGREE"},
		{"two sets, one noisy but every run faster", []float64{40, 80, 60, 50, 70}, true, "unresolved"},
		{"two sets, one noisy but every run slower", []float64{150, 250, 200, 170, 230}, true, "unresolved"},
	} {
		if got := verdict(steady, newSide(c.b), lower, c.self); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	setup := metricDecl{Name: "setup_s", Better: "lower", Bound: 0.10}
	if got := verdict(steady, newSide([]float64{70, 130, 100, 85, 115}), setup, true); got != "agree" {
		t.Errorf("setup_s, two sets, one noisy, medians equal: verdict %q, want agree", got)
	}
}

// TestCompareExactCounts requires a count that differs between two runs of
// the same workload and seed to fail the comparison.
func TestCompareExactCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, batches float64) string {
		r := &record{Workload: "build_scan", Seed: 1, Trace: true, Exact: []string{"mw.batches"}}
		r.Correct = true
		r.Attempted = 1
		r.Metrics = map[string]metric{"mw.batches": {batches, "count"}}
		path := filepath.Join(dir, name)
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, moved := write("a", 8), write("same", 8), write("moved", 9)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, benchmarkJSON, a, same, true); err != nil || !ok {
		t.Errorf("equal counts: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, benchmarkJSON, a, moved, true); err != nil || ok || !strings.Contains(out.String(), "EXACT") {
		t.Errorf("moved count: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
