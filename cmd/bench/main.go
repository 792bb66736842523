// Command bench is the repository's wall-clock benchmark: it sets up one
// workload from a seed, runs it closed-loop with one client for a fixed
// time, checks every output against an oracle, and prints every metric by
// name with its unit. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md says why each exists and how the layer
// metrics map onto the end-to-end ones.
//
//	bash cmd/bench/run.sh --workload build_scan --seed 7 --seconds 20 --trace 0
//	bash cmd/bench/run.sh --workload serve_mixed --trace 1 --trace-out spans.ndjson
//	bash cmd/bench/run.sh --compare old.ndjson new.ndjson
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rows     int // 0 = the workload's own size; only the smoke test shrinks it
	traceOut string
	probe    probeBudget
}

// hostInfo goes into every record: timings only compare on like hosts.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

// record is one run's full result: what -out appends and -compare reads.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Host     hostInfo       `json:"host"`
	Sizes    map[string]int `json:"sizes"`
	Samples  map[string]int `json:"samples"`
	Exact    []string       `json:"exact,omitempty"` // metrics that are exact counts
	// Raw holds an end-to-end run's timings as the clock read them, before the
	// host correction; the traced run reports the same as bench.* metrics.
	Raw map[string]metric `json:"raw,omitempty"`
	result
}

// result is the last line of standard output, in the shape the benchmark
// contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{probe: defaultProbeBudget}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: build_scan, build_staged, serve_score or serve_mixed")
	flag.Int64Var(&o.seed, "seed", 7, "seed of the dataset and the statement script")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 = record spans and print the per-layer metrics; 0 = the end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as NDJSON")
	out := flag.String("out", "", "append the run's full record (host, sizes, samples, metrics) to this NDJSON file")
	compare := flag.Bool("compare", false, "compare two record files: -compare old.ndjson new.ndjson")
	selfcheck := flag.Bool("selfcheck", false, "check that two record files of one commit agree: -selfcheck a.ndjson b.ndjson")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "metric declarations and bounds, for -compare and -selfcheck")
	flag.Parse()
	o.trace = trace != 0

	if *compare || *selfcheck {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare and -selfcheck take two record files"))
		}
		ok, err := compareFiles(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1), *selfcheck)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	s := findSpec(o.workload)
	if s == nil {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	rec, err := runWorkload(s, o)
	if err != nil {
		fatal(err)
	}
	printRecord(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	last, err := json.Marshal(rec.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

func newRecord(s *spec, o options) *record {
	return &record{
		Workload: s.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Host: hostInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Sizes:   map[string]int{},
		Samples: map[string]int{},
	}
}

// finish moves the collected metrics into the record.
func (r *record) finish(out *sink) {
	r.Metrics = out.metrics
	r.Exact = sortedKeys(out.exact)
	r.Correct = r.Failed == 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printRecord prints the run for a reader: host, sizes, sample counts and
// every metric by name with its unit.
func printRecord(r *record) {
	fmt.Printf("workload %s seed %d trace %v seconds %g\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d %s %s\n", r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Platform)
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Printf("size %s=%d\n", k, r.Sizes[k])
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Printf("samples %s=%d\n", k, r.Samples[k])
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Printf("%-42s %16.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(r.Raw) {
		fmt.Printf("uncorrected %-30s %16.6g %s\n", k, r.Raw[k].Value, r.Raw[k].Unit)
	}
	fmt.Printf("attempted %d failed %d\n", r.Attempted, r.Failed)
}

func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
