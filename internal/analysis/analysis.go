// Package analysis is repolint's self-contained static-analysis toolkit: a
// miniature go/analysis built only on the standard library's go/ast,
// go/types, go/parser and go/importer (the module deliberately has no
// third-party dependencies, so golang.org/x/tools is not available).
//
// It runs one analyzer, determinism: no wall-clock time, no global
// math/rand, no map-order dependence in non-test code. Byte-identical
// virtual time rests on it, and a test cannot catch a map order that only
// some runs draw. Span ends and resource releases are the tests' to catch;
// DESIGN.md ("Static analysis") lists the tests that pin them.
//
// A justified exception is annotated with a directive comment on the
// flagged line or the line above:
//
//	//repolint:<analyzer> <reason>   suppresses that analyzer's diagnostic
//	//repolint:ordered <reason>      marks a map iteration order-independent
//	                                 (determinism's domain-specific form)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
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
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	pkg   *Package
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //repolint:<analyzer>
// directive on the same line (or the line above) justifies the site.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Directive(pos, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
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

// Analyzers returns the repolint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DeterminismAnalyzer}
}

// RunSuite loads the packages matching patterns (relative to dir) and
// applies every analyzer, returning the surviving diagnostics sorted by
// position.
func RunSuite(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return runPackages(pkgs, analyzers), nil
}

// runPackages applies every analyzer to every already-loaded package.
func runPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Info:     pkg.Info,
				pkg:      pkg,
				diags:    &diags,
			})
		}
	}
	sortDiags(diags)
	return diags
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
