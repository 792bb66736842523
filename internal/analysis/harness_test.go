package analysis

// The analysistest-style harness: the lintdata module under testdata/ is
// loaded once, the full suite runs over it, and every `// want `+"`regex`"+``
// comment must be matched by exactly the diagnostics the analyzers emit — no
// missing findings, no extras. The Ok*/Fixed*/Good*/Free* functions are the
// passing cases and must stay diagnostic-free.

import (
	"go/ast"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	lintOnce  sync.Once
	lintPkgs  []*Package
	lintDiags []Diagnostic
	lintErr   error
)

// loadLintdata loads and analyzes the testdata module once per test binary.
func loadLintdata(t *testing.T) ([]*Package, []Diagnostic) {
	t.Helper()
	lintOnce.Do(func() {
		lintPkgs, lintErr = Load("testdata", "./...")
		if lintErr == nil {
			lintDiags = runPackages(lintPkgs, Analyzers()).Diags
		}
	})
	if lintErr != nil {
		t.Fatalf("load testdata module: %v", lintErr)
	}
	return lintPkgs, lintDiags
}

// wantAt is one expectation parsed from a `// want` comment.
type wantAt struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRx = regexp.MustCompile("// want `([^`]+)`")

func collectWants(t *testing.T, pkgs []*Package) []*wantAt {
	t.Helper()
	var wants []*wantAt
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRx.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantAt{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// TestTestdataDiagnostics checks the exact correspondence between want
// comments and emitted diagnostics, in both directions.
func TestTestdataDiagnostics(t *testing.T) {
	pkgs, diags := loadLintdata(t)
	wants := collectWants(t, pkgs)
	if len(wants) == 0 {
		t.Fatal("no want comments found in testdata")
	}

	matchedWant := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matchedWant[i] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matchedWant[i] {
			t.Errorf("missing diagnostic: %s:%d wants %q", w.file, w.line, w.re)
		}
	}
}

// TestAnalyzerCoverage asserts every analyzer catches at least two distinct
// failing cases in its testdata.
func TestAnalyzerCoverage(t *testing.T) {
	_, diags := loadLintdata(t)
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	for _, a := range Analyzers() {
		if byAnalyzer[a.Name] < 2 {
			t.Errorf("analyzer %s caught %d testdata cases, want >= 2", a.Name, byAnalyzer[a.Name])
		}
	}
}

// TestPassingCases asserts the Ok*/Fixed*/Good*/Free* functions stay clean,
// and that every case package ships at least one.
func TestPassingCases(t *testing.T) {
	pkgs, diags := loadLintdata(t)
	passing := map[string]int{} // package base -> count of passing functions
	for _, pkg := range pkgs {
		base := pkgBase(pkg.Types)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := fd.Name.Name
				if !strings.HasPrefix(name, "Ok") && !strings.HasPrefix(name, "Fixed") &&
					!strings.HasPrefix(name, "Good") && !strings.HasPrefix(name, "Free") {
					continue
				}
				passing[base]++
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				for _, d := range diags {
					if d.Pos.Filename == start.Filename && d.Pos.Line >= start.Line && d.Pos.Line <= end.Line {
						t.Errorf("passing case %s.%s has a diagnostic: %s", base, name, d)
					}
				}
			}
		}
	}
	for _, base := range []string{"determinism", "spanend", "closer", "pr3scan", "pr3staging", "skewstats", "coldict", "profsnap", "servewire", "interproc", "scorecat"} {
		if passing[base] == 0 {
			t.Errorf("case package %s has no passing (Ok*/Fixed*/Good*/Free*) function", base)
		}
	}
}

// TestPR3ScanShapeCaught is the white-box regression for PR 3's hand-found
// scan bug: the leaked batch-scan span must trip spanend on the
// reconstructed code shape.
func TestPR3ScanShapeCaught(t *testing.T) {
	_, diags := loadLintdata(t)
	n := 0
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "pr3scan") && d.Analyzer == "spanend" {
			n++
		}
	}
	if n < 1 {
		t.Error("spanend missed the PR 3 leaked-scan-span shape")
	}
}

// TestPR3StagingShapeCaught is the white-box regression for PR 3's leaked
// staging writer: the mid-batch failure return must trip closer.
func TestPR3StagingShapeCaught(t *testing.T) {
	_, diags := loadLintdata(t)
	n := 0
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "pr3staging") && d.Analyzer == "closer" {
			n++
		}
	}
	if n < 1 {
		t.Error("closer missed the PR 3 leaked-staging-writer shape")
	}
}

// TestProfSnapShapeCaught is the white-box regression for the profiler's
// span-boundary counter-snapshot pairing: a span leaked before its end-side
// snapshot must trip spanend, and rendering a delta map in iteration order
// must trip determinism.
func TestProfSnapShapeCaught(t *testing.T) {
	_, diags := loadLintdata(t)
	counts := map[string]int{}
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "profsnap") {
			counts[d.Analyzer]++
		}
	}
	if counts["spanend"] < 1 {
		t.Errorf("spanend missed the leaked boundary-snapshot span (got %d diagnostics)", counts["spanend"])
	}
	if counts["determinism"] < 1 {
		t.Errorf("determinism missed the delta-map iteration (got %d diagnostics)", counts["determinism"])
	}
}

// TestServeWireShapeCaught is the white-box regression for the serving
// layer's release obligations: a fleet session leaked on the admission error
// path and a driver connection leaked on the handshake error path must trip
// closer, and the shared-batch span leaked on a scheduling failure must trip
// spanend.
func TestServeWireShapeCaught(t *testing.T) {
	_, diags := loadLintdata(t)
	counts := map[string]int{}
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "servewire") {
			counts[d.Analyzer]++
		}
	}
	if counts["closer"] < 2 {
		t.Errorf("closer missed the Session.Close/Conn.Close leak shapes (got %d diagnostics, want 2)", counts["closer"])
	}
	if counts["spanend"] < 1 {
		t.Errorf("spanend missed the leaked shared-batch span (got %d diagnostics)", counts["spanend"])
	}
}

// TestInterprocShapesCaught pins the summary layer's claim: both obligation
// analyzers catch the two-level helper-leak and the conditional-release
// shapes — exactly the shapes a purely intraprocedural engine hands off and
// forgets — and constructor-wrapped acquires re-attach in callers.
func TestInterprocShapesCaught(t *testing.T) {
	_, diags := loadLintdata(t)
	type key struct{ analyzer, kind string }
	counts := map[key]int{}
	for _, d := range diags {
		if !strings.Contains(d.Pos.Filename, "interproc") {
			continue
		}
		switch {
		case strings.Contains(d.Message, "never releases it"):
			counts[key{d.Analyzer, "chain"}]++
		case strings.Contains(d.Message, "only on some paths"):
			counts[key{d.Analyzer, "cond"}]++
		default:
			counts[key{d.Analyzer, "fresh"}]++
		}
		if strings.Contains(d.Message, "never releases it") && len(d.Chain) < 2 {
			t.Errorf("two-level finding carries a short callee chain %v: %s", d.Chain, d)
		}
	}
	for _, a := range []string{"spanend", "closer"} {
		if counts[key{a, "chain"}] < 1 {
			t.Errorf("%s missed the two-level helper-leak shape", a)
		}
		if counts[key{a, "cond"}] < 1 {
			t.Errorf("%s missed the conditional-release shape", a)
		}
	}
	if counts[key{"spanend", "fresh"}] < 2 || counts[key{"closer", "fresh"}] < 2 {
		t.Errorf("constructor-wrapped acquires not re-attached in callers (spanend %d, closer %d, want >= 2 each)",
			counts[key{"spanend", "fresh"}], counts[key{"closer", "fresh"}])
	}
}

// TestDiagnosticsDeterministic loads the testdata module a second time,
// independently of the shared load, runs the suite over it and demands the
// same findings, callee chains included, in the same order — the analyzers
// are subject to the same determinism contract they enforce.
func TestDiagnosticsDeterministic(t *testing.T) {
	_, first := loadLintdata(t)
	pkgs, err := Load("testdata", "./...")
	if err != nil {
		t.Fatalf("reload testdata module: %v", err)
	}
	second := runPackages(pkgs, Analyzers()).Diags
	if len(first) == 0 {
		t.Fatal("the testdata module produced no diagnostics: nothing to compare")
	}
	if len(first) != len(second) {
		t.Fatalf("diagnostic count changed between loads: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("diagnostic %d differs between loads:\n  %s %v\n  %s %v", i, first[i], first[i].Chain, second[i], second[i].Chain)
		}
	}
}
