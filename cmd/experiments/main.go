// Command experiments reproduces the paper's experimental study (§5.2): it
// runs one experiment per figure on the simulated stack and prints each
// figure's series in virtual-time seconds.
//
// Usage:
//
//	experiments [-scale 1.0] [-run fig6] [-format text|markdown|json] [-out FILE] [-list]
//
// Scale multiplies the workload sizes (leaves, rows); 1.0 completes in well
// under a minute, larger values approach the paper's sizes at the cost of
// wall time. Output format "markdown" emits the tables EXPERIMENTS.md
// embeds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/exp"
	"repro/internal/obs"
)

// writeFile creates path and streams fn's output into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	run := flag.String("run", "", "run only this experiment id (see -list)")
	format := flag.String("format", "text", "output format: text, markdown or json")
	out := flag.String("out", "", "write output to this file instead of stdout")
	list := flag.Bool("list", false, "list experiment ids and exit")
	check := flag.Bool("check", false, "validate each figure's shape against the paper's claim; exit nonzero on failure")
	parallel := flag.Int("parallel", 1, "run up to this many experiments concurrently (each is internally deterministic)")
	traceOut := flag.String("trace", "", "write a deterministic virtual-time trace of every tree build to this file")
	traceFormat := flag.String("trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or ndjson")
	flag.Parse()

	// Observability registers one proc per tree build in registration order;
	// run experiments sequentially so the trace is deterministic.
	var col *obs.Trace
	if *traceOut != "" {
		col = obs.NewTrace()
		if *parallel != 1 {
			fmt.Fprintln(os.Stderr, "experiments: -trace forces -parallel=1 for deterministic output")
			*parallel = 1
		}
	}

	if *list {
		for _, r := range exp.Runners() {
			fmt.Printf("%-12s %s\n", r.ID, r.Notes)
		}
		return
	}

	var runners []exp.Runner
	if *run != "" {
		r, ok := exp.Get(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q; known: %s\n", *run, strings.Join(exp.IDs(), ", "))
			os.Exit(2)
		}
		runners = []exp.Runner{r}
	} else {
		runners = exp.Runners()
	}

	// Run experiments (optionally several at a time); results are collected
	// and emitted in registry order, so output is identical regardless of
	// parallelism.
	type outcome struct {
		e   *exp.Experiment
		err error
	}
	outcomes := make([]outcome, len(runners))
	sem := make(chan struct{}, max(1, *parallel))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r exp.Runner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var env *exp.Env
			if col != nil {
				env = &exp.Env{Obs: col, Label: r.ID}
			}
			e, err := r.Run(env, *scale)
			outcomes[i] = outcome{e, err}
		}(i, r)
	}
	wg.Wait()

	var b strings.Builder
	failures := 0
	for i, r := range runners {
		e, err := outcomes[i].e, outcomes[i].err
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		if *check {
			if err := exp.Check(e); err != nil {
				fmt.Fprintf(&b, "FAIL %-12s %v\n", e.ID, err)
				failures++
			} else {
				fmt.Fprintf(&b, "ok   %-12s %s\n", e.ID, e.Title)
			}
			continue
		}
		switch *format {
		case "markdown":
			b.WriteString(e.Markdown())
		case "json":
			js, err := e.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, err)
				os.Exit(1)
			}
			b.WriteString(js)
		default:
			b.WriteString(e.Text())
			b.WriteString("\n")
		}
	}
	defer func() {
		if failures > 0 {
			os.Exit(1)
		}
	}()

	if col != nil {
		if err := writeFile(*traceOut, func(w io.Writer) error { return col.Write(w, *traceFormat) }); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote trace %s\n", *traceOut)
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(b.String())
}
