package analysis

// The analysistest-style harness: the lintdata module under testdata/ is
// loaded once, the full suite runs over it, and every `// want `+"`regex`"+``
// comment must be matched by exactly the diagnostics the analyzers emit — no
// missing findings, no extras. The Ok*/Fixed*/Good*/Free* functions are the
// passing cases and must stay diagnostic-free.

import (
	"go/ast"
	"path"
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
			lintDiags = runPackages(lintPkgs, Analyzers())
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
		base := path.Base(pkg.PkgPath)
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
	for _, base := range []string{"determinism", "coldict"} {
		if passing[base] == 0 {
			t.Errorf("case package %s has no passing (Ok*/Fixed*/Good*/Free*) function", base)
		}
	}
}

// diagsIn returns the diagnostics the suite reported inside function fn of
// the testdata package base.
func diagsIn(t *testing.T, base, fn string) []Diagnostic {
	t.Helper()
	pkgs, diags := loadLintdata(t)
	for _, pkg := range pkgs {
		if path.Base(pkg.PkgPath) != base {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn {
					start, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
					var in []Diagnostic
					for _, d := range diags {
						if d.Pos.Filename == start.Filename && d.Pos.Line >= start.Line && d.Pos.Line <= end.Line {
							in = append(in, d)
						}
					}
					return in
				}
			}
		}
	}
	t.Fatalf("no function %s.%s in testdata", base, fn)
	return nil
}

// caughtBy counts the diagnostics of analyzer among ds.
func caughtBy(ds []Diagnostic, analyzer string) int {
	n := 0
	for _, d := range ds {
		if d.Analyzer == analyzer {
			n++
		}
	}
	return n
}

// TestProfSnapShapeCaught: the profiler renders span-boundary counter
// deltas; rendering a delta map in iteration order
// (determinism.BadDeltaMapOrder) must trip determinism.
func TestProfSnapShapeCaught(t *testing.T) {
	if n := caughtBy(diagsIn(t, "determinism", "BadDeltaMapOrder"), "determinism"); n < 1 {
		t.Errorf("determinism missed the delta-map iteration (got %d diagnostics)", n)
	}
}

// TestDiagnosticsDeterministic loads the testdata module a second time,
// independently of the shared load, runs the suite over it and demands the
// same findings in the same order — the analyzer is subject to the same
// determinism contract it enforces.
func TestDiagnosticsDeterministic(t *testing.T) {
	_, first := loadLintdata(t)
	pkgs, err := Load("testdata", "./...")
	if err != nil {
		t.Fatalf("reload testdata module: %v", err)
	}
	second := runPackages(pkgs, Analyzers())
	if len(first) == 0 {
		t.Fatal("the testdata module produced no diagnostics: nothing to compare")
	}
	if len(first) != len(second) {
		t.Fatalf("diagnostic count changed between loads: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("diagnostic %d differs between loads:\n  %s\n  %s", i, first[i], second[i])
		}
	}
}
