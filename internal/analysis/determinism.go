package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the repository's byte-determinism contract in
// non-test code: simulated results, obs traces and CC tables must be pure
// functions of (workload, configuration), identical at every GOMAXPROCS.
// Three mechanically detectable classes break that:
//
//   - wall-clock reads (time.Now/Since): virtual time comes from sim.Meter;
//   - the global math/rand source: every random stream must be an explicitly
//     seeded *rand.Rand plumbed to its user;
//   - ranging over a map where iteration order can leak into output: meter
//     charges, trace spans or exported bytes. A loop is exempt when the
//     enclosing function visibly sorts afterwards (the collect-then-sort
//     idiom) or carries a //repolint:ordered justification.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock time, global math/rand, or order-dependent map iteration in non-test code",
	Run:  runDeterminism,
}

// randConstructors are the math/rand(/v2) entry points that do not draw from
// the global source and therefore stay legal.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.CallExpr:
				checkWallClockAndRand(p, st)
			case *ast.RangeStmt:
				checkMapRange(p, st, enclosingFunc(f, st))
			}
			return true
		})
	}
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing the
// statement, found by position.
func enclosingFunc(file *ast.File, st *ast.RangeStmt) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= st.Pos() && st.End() <= n.End() {
				best = n // keep descending: innermost wins
			}
		}
		return true
	})
	return best
}

// checkWallClockAndRand flags time.Now/Since and global math/rand draws.
func checkWallClockAndRand(p *Pass, call *ast.CallExpr) {
	f := calleeFunc(p.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			p.Reportf(call.Pos(),
				"wall-clock time.%s breaks byte-determinism; derive time from the sim.Meter virtual clock",
				f.Name())
		}
	case "math/rand", "math/rand/v2":
		if funcSignature(f).Recv() != nil || randConstructors[f.Name()] {
			return // *rand.Rand methods and explicit-source constructors are fine
		}
		p.Reportf(call.Pos(),
			"global math/rand.%s draws from the process-wide source; plumb an explicitly seeded *rand.Rand",
			f.Name())
	}
}

// checkMapRange flags ranging over a map unless the loop feeds a sort or is
// annotated //repolint:ordered.
func checkMapRange(p *Pass, st *ast.RangeStmt, fn ast.Node) {
	tv, ok := p.Info.Types[st.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if p.Directive(st.Pos(), "ordered") {
		return
	}
	if fn != nil && sortsAfter(p, fn, st) {
		return
	}
	p.Reportf(st.Pos(),
		"map iteration order is nondeterministic; collect and sort the keys, or annotate //repolint:ordered with a justification")
}

// sortsAfter reports whether the enclosing function calls into sort/slices
// sorting at or after the range statement — the collect-then-sort idiom that
// makes the iteration order immaterial.
func sortsAfter(p *Pass, fn ast.Node, st *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < st.Pos() {
			return true
		}
		if isSortCall(p, call) {
			found = true
		}
		return !found
	})
	return found
}

// isSortCall recognizes ordering calls from sort and slices.
func isSortCall(p *Pass, call *ast.CallExpr) bool {
	f := calleeFunc(p.Info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	name := f.Name()
	switch f.Pkg().Path() {
	case "sort":
		return !strings.HasPrefix(name, "Search") && !strings.HasPrefix(name, "IsSorted")
	case "slices":
		return strings.Contains(name, "Sort") && !strings.HasPrefix(name, "IsSorted")
	}
	return false
}
