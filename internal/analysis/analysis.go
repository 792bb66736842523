// Package analysis is repolint's self-contained static-analysis toolkit: a
// miniature go/analysis built only on the standard library's go/ast,
// go/types, go/parser and go/importer (the module deliberately has no
// third-party dependencies, so golang.org/x/tools is not available).
//
// Each analyzer guards a defect class the tests do not all catch (see
// "What catches a planted leak" below):
//
//   - determinism:  no wall-clock time, no global math/rand, no map-order
//     dependence in non-test code — byte-identical virtual time rests on it
//   - spanend:      every obs span reaches End on all paths, error returns
//     included; a leaked span changes no tree, counter or clock
//   - closer:       a resource with a Close/Finish/Abort obligation, acquired
//     from a constructor, is released on all paths, also when it is passed
//     to a helper that never releases it
//
// Fork/join discipline and goroutine lifetimes are not linted:
// obs.RunSegments is the only caller of sim.Meter.Fork, and the tests named
// on it catch a broken barrier.
//
// The obligation analyzers (spanend, closer) are interprocedural within the
// module: a fixed-point summary pass (summary.go) computes, per function,
// which parameters' obligations it always / conditionally / never releases
// and which results carry fresh obligations, and the engine consults those
// summaries at call sites instead of treating every call as an ownership
// hand-off.
//
// A justified exception is annotated with a directive comment on the
// flagged line or the line above:
//
//	//repolint:<analyzer> <reason>   suppresses that analyzer's diagnostic
//	//repolint:ordered <reason>      marks a map iteration order-independent
//	                                 (determinism's domain-specific form)
//
// # What catches a planted leak
//
// Each spanend and closer testdata case was planted, one at a time, as the
// same mistake at a real site of a copy of the module. "lint" is repolint's
// verdict; the last column names the tests `go test ./...` then failed ("-":
// none; T3: TestProfilesMatchRecord, TestCancelledBuildLeavesNothing and
// TestAttributionSumsToTotal). A starred site keeps its span or resource in a
// struct field, an ownership transfer the analyzers do not follow; nor does
// closer track engine.Cursor, an interface, or a net.Conn.
//
//	testdata case                   planted at                                  lint  go test ./... fails
//	spanend.BadErrorPath,           mw/exec.go sql-fallback span, error exit    yes   TestCancelledBuildLeavesNothing
//	BadScanErrorPath,
//	BadSnapshotLeak
//	servewire.BadSharedBatchSpan    mw/exec.go stage-file span, Finish error    yes   TestFinishErrorAbortsRemainingWriters,
//	                                                                                  TestDaemonScoreSharedRoundFailsMidStream
//	spanend.BadErrorPath            engine/aux.go keyset/TID span, error exit   yes   TestCancelledBuildLeavesNothing
//	spanend.BadErrorPath            engine/aux.go copy-subset span, error exit  yes   TestCancelledBuildLeavesNothing
//	spanend.BadErrorPath            mw/exec.go batch span*, create error        no    TestFleetSharedRoundErrorAbortsCohort
//	spanend.BadFallbackReturn       engine/exec.go sql span, DDL return         yes   TestStatementSpansEnd
//	spanend.BadDiscarded            engine/exec.go sql span discarded           yes   T3
//	spanend.BadNeverEnded           engine/exec.go sql span                     yes   T3
//	spanend.BadNeverEnded           dtree/builder.go build span*                no    T3, TestFleetCancelledSessionLeavesCohort,
//	                                                                                  TestFleetSharedRoundErrorAbortsCohort
//	scorecat score-table span       engine/score.go ScorePass span*             no    TestScorePassSpan, TestProfilesMatchRecord,
//	                                                                                  TestFleetCancelledSessionLeavesCohort,
//	                                                                                  TestDaemonScoreSharedRoundFailsMidStream
//	spanend.BadNeverEnded           engine/server.go cursor span*               no    TestCursorSpanEndsOnce
//	interproc forwardLeak           engine/exec.go sql span via two helpers     yes   T3
//	interproc endIf                 engine/exec.go sql span, ended if rows      yes   TestCancelledBuildLeavesNothing
//	interproc startSpan, startSpan2 engine/exec.go wrapped Start                yes   T3
//	                                engine/exec.go wrapped Start(...).AttrStr   no    T3
//	interproc discarded wrapper     engine/exec.go wrapped Start                yes   T3
//	                                engine/exec.go wrapped Start(...).AttrStr   no    T3
//	interproc recLeak               engine/exec.go sql span, recursive end      yes   TestStatementSpansEnd (empty text)
//	closer.BadCursorLeak            baseline.go OpenScan cursor, no Close       no    - (equivalent, see below)
//	closer.BadWriterLeak            mw/exec.go tee writers*, Finish error       no    TestFinishErrorAbortsRemainingWriters
//	closer.BadWriterInLoop          mw/exec.go tee writers*, create error       no    TestCreateErrorAbortsEarlierWriters
//	servewire.BadSessionLeak        serve/fleet.go admit, NewBuilder error      no    -
//	servewire.BadSessionLeak        serve/fleet.go failed run, no s.Close       no    TestFleetRunErrorClosesSessions,
//	                                                                                  TestFleetCancelledSessionLeavesCohort,
//	                                                                                  TestFleetSharedRoundErrorAbortsCohort,
//	                                                                                  TestDaemonScoreSharedRoundFailsMidStream
//	closer (via nb.Train's summary) exp/figures.go middleware, Train error      yes   - (needs a fault seam)
//	closer.BadCursorLeak            exp/exp.go middleware, no Close             no    TestAllShapeChecksPass
//	scorecat CatalogScan            serve/fleet.go SharedBatch, no Abort        no    TestFleetCancelledSessionLeavesCohort,
//	                                                                                  TestFleetSharedRoundErrorAbortsCohort
//	scorecat CatalogScan            serve/fleet.go ScorePass, no Abort          no    TestFleetCancelledSessionLeavesCohort
//	closer.BadCursorLeak            dtree/build.go Builder, Step error          yes   TestCancelledBuildLeavesNothing
//	closer.BadCursorLeak            dtree/build.go Builder, Feed error          yes   - (needs a fault seam)
//	closer.BadWriterLeak            cmd/sqlsh Dispatcher, no Close              yes   TestDaemonSqlshSameScript
//	servewire.BadConnLeak           driver.go socket, handshake error           no    TestHandshakeVersionMismatch
//	interproc drainVia, closeIf,    baseline.go OpenScan cursor                 no    - (equivalent, see below)
//	makeCursor2
//	                                exp/figures.go middleware                   yes   TestAllShapeChecksPass
//
// Of these 37 plants repolint alone catches 2, the tests alone 13, both 17
// and neither 5: the cursor left open and a middleware leaked when NewBuilder
// fails. The two repolint-only plants need an injected Train or Feed error,
// which no test can cause without a fault seam. The two cursor plants
// change nothing: ExtractAll reads its cursor to the end, and a cursor that
// runs out ends its span, so no check can catch them. TestExtractAllEndsItsSpans
// fails when neither the end of the scan nor a Close ends the span.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named check that runs over a type-checked package.
type Analyzer struct {
	Name string // short lowercase identifier, used in output and directives
	Doc  string // one-line description of the guarded invariant
	Run  func(*Pass)
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string

	// Chain is the callee chain for interprocedural findings (outermost
	// callee first), empty for local ones. The chain is already rendered
	// into Message; it is carried separately so tests can check it.
	Chain []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Module is the module path of the package under analysis ("" outside a
	// module). Analyzers use it to scope rules to first-party types.
	Module string

	pkg   *Package
	diags *[]Diagnostic

	// index is the whole-module function index the obligation analyzers
	// consult for interprocedural summaries; nil when running without one
	// (unit tests over a single synthetic pass).
	index *ModuleIndex
}

// Reportf records a diagnostic at pos unless a //repolint:<analyzer>
// directive on the same line (or the line above) justifies the site.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, nil, format, args...)
}

// report is Reportf carrying a callee chain for structured output.
func (p *Pass) report(pos token.Pos, chain []string, format string, args ...any) {
	if p.Directive(pos, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Directive reports whether a //repolint:<name> comment annotates the line of
// pos or the line immediately above it.
func (p *Pass) Directive(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	for _, d := range p.pkg.directives[position.Filename] {
		if d.name == name && (d.line == position.Line || d.line == position.Line-1) {
			return true
		}
	}
	return false
}

// directive is one parsed //repolint:<name> comment.
type directive struct {
	line int
	name string
}

// parseDirectives extracts //repolint: comments from a parsed file.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//repolint:")
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(text, " ")
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			out = append(out, directive{line: fset.Position(c.Pos()).Line, name: name})
		}
	}
	return out
}

// Analyzers returns the full repolint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		SpanendAnalyzer,
		CloserAnalyzer,
	}
}

// Timing is one phase's wall-clock cost in a suite run.
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// SuiteResult is the outcome of RunSuite: the sorted findings plus the
// wall-time and coverage figures cmd/repolint and verify.sh report.
type SuiteResult struct {
	Diags   []Diagnostic
	Timings []Timing    // "(summaries)" first, then one entry per analyzer
	Stats   ModuleStats // module summary coverage
}

// RunSuite loads the packages matching patterns (relative to dir) and
// applies every analyzer, returning the surviving diagnostics sorted by
// position, per-phase wall times and module coverage statistics.
func RunSuite(dir string, analyzers []*Analyzer, patterns ...string) (*SuiteResult, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return runPackages(pkgs, analyzers), nil
}

// runPackages applies every analyzer to every already-loaded package, with a
// shared module index for interprocedural summaries.
func runPackages(pkgs []*Package, analyzers []*Analyzer) *SuiteResult {
	res := &SuiteResult{}

	// Build the module index and force the summary fixed points up front so
	// their cost is attributed to one "(summaries)" phase instead of the
	// first analyzer that happens to trigger them.
	start := time.Now() //repolint:determinism wall-time measurement of the linter itself, never in output ordering
	idx := NewModuleIndex(pkgs)
	for _, rules := range obligationRuleSets() {
		idx.summaries(rules)
	}
	res.Timings = append(res.Timings, Timing{Name: "(summaries)", Elapsed: time.Since(start)}) //repolint:determinism wall-time measurement of the linter itself

	for _, a := range analyzers {
		start := time.Now() //repolint:determinism wall-time measurement of the linter itself
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   pkg.Module,
				pkg:      pkg,
				diags:    &res.Diags,
				index:    idx,
			}
			a.Run(pass)
		}
		res.Timings = append(res.Timings, Timing{Name: a.Name, Elapsed: time.Since(start)}) //repolint:determinism wall-time measurement of the linter itself
	}
	sortDiags(res.Diags)
	res.Stats = idx.Stats()
	return res
}

// obligationRuleSets lists the rule sets that have summary tables, in the
// order their fixed points are computed.
func obligationRuleSets() []*obRules {
	return []*obRules{spanendRules(), closerRules()}
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pkgBase returns the last element of a package path ("repro/internal/obs"
// -> "obs"), the key analyzers match stub and real packages with.
func pkgBase(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	p := pkg.Path()
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// namedOrPtr unwraps a pointer type and returns the named type beneath it.
func namedOrPtr(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// calleeFunc resolves the *types.Func a call statically invokes (method or
// package-level function), or nil for builtins, conversions and indirect
// calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcSignature returns a function object's signature. (types.Func.Signature
// needs go1.23; the module language version is 1.22.)
func funcSignature(f *types.Func) *types.Signature {
	sig, _ := f.Type().(*types.Signature)
	return sig
}
