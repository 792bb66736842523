package analysis

import (
	"go/ast"
	"go/types"
)

// ForkjoinAnalyzer enforces the parallel cost model's barrier discipline:
// every sim.Meter.Fork must be paired with Join or JoinSerial on all paths,
// every obs.Tracer.ForkLanes with JoinLanes, and between a fork and its join the
// parent must stay untouched — no Charge or Advance on the forked meter, no
// Start on the forked tracer. Violating either breaks the determinism
// argument: lane work is only conserved if it folds back through the barrier,
// and a parent charge between fork and join would interleave serial and
// parallel virtual time nondeterministically.
//
// Lane slices handed to module helpers are followed through the function
// summaries: a helper that always Joins them discharges the obligation, one
// that never (or only sometimes) does keeps the leak at the forking function
// with the callee chain.
var ForkjoinAnalyzer = &Analyzer{
	Name: "forkjoin",
	Doc:  "sim.Meter.Fork/obs.Tracer.ForkLanes must pair with Join/JoinLanes; no parent Charge between fork and join",
	Run:  runForkjoin,
}

func runForkjoin(p *Pass) {
	runObligations(p, forkjoinRules())
}

// forkjoinRules is the forkjoin obligation rule set, shared with the summary
// layer and the gohandoff analyzer.
func forkjoinRules() *obRules {
	return &obRules{
		name:        "forkjoin",
		leakVerb:    "Joined back",
		releaseArg:  map[string]bool{"Join": true, "JoinSerial": true, "JoinLanes": true},
		releaseRecv: map[string]bool{}, // joins go through the parent, never the lanes
		acquire: func(p *Pass, call *ast.CallExpr) (string, []int, bool) {
			f := calleeFunc(p.Info, call)
			if f == nil {
				return "", nil, false
			}
			switch {
			case f.Name() == "Fork" && pkgBase(f.Pkg()) == "sim":
				return "forked lane meters", []int{0}, true
			case f.Name() == "ForkLanes" && pkgBase(f.Pkg()) == "obs":
				return "forked lane tracers", []int{0}, true
			}
			return "", nil, false
		},
		paramType: func(p *Pass, t types.Type) (string, bool) {
			sl, ok := t.(*types.Slice)
			if !ok {
				return "", false
			}
			n := namedOrPtr(sl.Elem())
			if n == nil {
				return "", false
			}
			switch {
			case n.Obj().Name() == "Meter" && pkgBase(n.Obj().Pkg()) == "sim":
				return "forked lane meters", true
			case n.Obj().Name() == "Tracer" && pkgBase(n.Obj().Pkg()) == "obs":
				return "forked lane tracers", true
			}
			return "", false
		},
		validRelease: func(p *Pass, call *ast.CallExpr) bool {
			f := calleeFunc(p.Info, call)
			if f == nil {
				return false
			}
			base := pkgBase(f.Pkg())
			return base == "sim" || base == "obs"
		},
		// Handing the lane meters to ForkLanes (to clock the lane tracers) or
		// to len/cap reads them without taking over the Join obligation.
		keepArg: func(p *Pass, call *ast.CallExpr) bool {
			f := calleeFunc(p.Info, call)
			return f != nil && f.Name() == "ForkLanes" && pkgBase(f.Pkg()) == "obs"
		},
		onOpenCall: checkParentTouch,
	}
}

// checkParentTouch flags parent-meter charges (and parent-tracer span starts)
// issued while a fork is open on the same receiver expression.
func checkParentTouch(p *Pass, call *ast.CallExpr, open []*obligation) {
	if len(open) == 0 {
		return
	}
	f := calleeFunc(p.Info, call)
	if f == nil {
		return
	}
	var verb string
	switch {
	case pkgBase(f.Pkg()) == "sim" && (f.Name() == "Charge" || f.Name() == "Advance"):
		verb = "charged"
	case pkgBase(f.Pkg()) == "obs" && f.Name() == "Start":
		verb = "recorded to"
	default:
		return
	}
	recv := recvExprString(call)
	if recv == "" {
		return
	}
	for _, ob := range open {
		if ob.recv == recv {
			p.Reportf(call.Pos(), "parent %q is %s between Fork and Join (forked at line %d)",
				recv, verb, p.Fset.Position(ob.pos).Line)
			return
		}
	}
}
