// Command repolint runs the repository's static-analysis suite (see
// internal/analysis) over the packages matching the given patterns
// (default ./...) and exits non-zero if any invariant is violated:
//
//	go run ./cmd/repolint ./...
//
// Diagnostics print as file:line:col: analyzer: message. With -json each
// finding is emitted as one JSON object per line on stdout (analyzer,
// position, message, callee chain); stdout is byte-identical across reruns
// (TestDiagnosticsDeterministic in internal/analysis compares two independent
// loads of its testdata module). With -stats the per-analyzer
// wall times and the module summary-coverage figures print to stderr
// (stderr only — timings are nondeterministic by nature and must never
// contaminate the comparable stream).
//
// A justified exception is annotated in the source with
// //repolint:<analyzer> <reason> on the flagged line or the line above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

// jsonFinding is the stable shape of one -json output line.
type jsonFinding struct {
	Analyzer string   `json:"analyzer"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON Lines on stdout")
	stats := flag.Bool("stats", false, "print per-analyzer wall times and summary coverage to stderr")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := analysis.RunSuite(".", analysis.Analyzers(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	if *stats {
		for _, tm := range res.Timings {
			fmt.Fprintf(os.Stderr, "repolint: %-14s %v\n", tm.Name, tm.Elapsed)
		}
		fmt.Fprintf(os.Stderr, "repolint: summaries: %d functions, %d cross-function obligation events\n",
			res.Stats.Functions, res.Stats.CrossFunc)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range res.Diags {
			f := jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
				Chain:    d.Chain,
			}
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, "repolint:", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range res.Diags {
			fmt.Println(d.String())
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s) in %d analyzer(s) suite\n", len(res.Diags), len(analysis.Analyzers()))
		os.Exit(1)
	}
}
