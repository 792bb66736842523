package analysis

import (
	"go/ast"
	"go/types"
)

// SpanendAnalyzer enforces the span lifecycle contract of internal/obs: every
// span returned by Tracer.Start must reach End on every path out of the
// acquiring function, including error returns. PR 3 fixed exactly this
// class by hand — the batch scan span leaked when the scan errored — and the
// next parallel fan-out must not be able to reintroduce it.
//
// The check is interprocedural within the module: passing a span to an
// always-Ending helper discharges it, a helper that never (or only
// conditionally) Ends it keeps the leak attributed to the acquirer with the
// callee chain, and functions returning spans they started are themselves
// acquire sites in their callers. Transfers the summaries cannot see
// (struct fields, closures, indirect calls) remain permissive.
var SpanendAnalyzer = &Analyzer{
	Name: "spanend",
	Doc:  "obs spans must reach End() on all paths, including error returns",
	Run:  runSpanend,
}

func runSpanend(p *Pass) {
	runObligations(p, spanendRules())
}

// spanendRules is the spanend obligation rule set, shared with the summary
// layer.
func spanendRules() *obRules {
	return &obRules{
		name:        "spanend",
		leakVerb:    "Ended",
		releaseRecv: map[string]bool{"End": true},
		acquire: func(p *Pass, call *ast.CallExpr) (string, []int, bool) {
			f := calleeFunc(p.Info, call)
			if f == nil || f.Name() != "Start" || pkgBase(f.Pkg()) != "obs" {
				return "", nil, false
			}
			if sig := funcSignature(f); sig.Results().Len() != 1 || namedOrPtr(sig.Results().At(0).Type()) == nil {
				return "", nil, false
			}
			return "obs span", []int{0}, true
		},
		paramType: func(p *Pass, t types.Type) (string, bool) {
			n := namedOrPtr(t)
			if n == nil || n.Obj().Name() != "Span" || pkgBase(n.Obj().Pkg()) != "obs" {
				return "", false
			}
			return "obs span", true
		},
		validRelease: func(p *Pass, call *ast.CallExpr) bool {
			f := calleeFunc(p.Info, call)
			return f != nil && pkgBase(f.Pkg()) == "obs"
		},
	}
}
