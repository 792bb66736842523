// Command repolint runs the repository's static-analysis suite (see
// internal/analysis: the determinism analyzer) over the packages matching
// the given patterns (default ./...) and exits non-zero if any invariant is
// violated:
//
//	go run ./cmd/repolint ./...
//
// Diagnostics print as file:line:col: analyzer: message; stdout is
// byte-identical across reruns (TestDiagnosticsDeterministic in
// internal/analysis compares two independent loads of its testdata module).
//
// A justified exception is annotated in the source with
// //repolint:<analyzer> <reason> on the flagged line or the line above.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.RunSuite(".", analysis.Analyzers(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
