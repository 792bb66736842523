package analysis

// This file implements the shared obligation analysis behind the spanend and
// closer analyzers: a value acquired at some call site (an obs span, a cursor
// or staging writer) carries an obligation — End the span, Close the
// resource — that must be discharged on every path out of the acquiring
// function.
//
// The walker is a small abstract interpreter over the AST, path-sensitive
// across if/switch/select arms. Ownership transfer is resolved against the
// module's function summaries (summary.go) where possible: passing an
// obligation to an always-releasing helper discharges it, passing to a
// never- or conditionally-releasing helper keeps it tracked here (the leak
// is reported at the acquirer with the callee chain), and a call whose
// summarized results carry fresh obligations is itself an acquire site. Where
// no summary exists (stdlib, indirect calls, escapes into structs, globals
// or goroutines) the engine stays deliberately permissive: the obligation is
// treated as handed off and is not tracked further, keeping false positives
// near zero — the property a CI gate needs.
//
// The same walker runs in two modes: analyzing, where leaks report at the
// acquire sites, and summarizing (summary.go), where it computes one
// function's FuncSummary and reports nothing.
//
// The analysis proceeds in three phases per function literal or declaration:
//
//  1. collect obligations: simple assignments whose right-hand side is (or
//     chains from) an acquiring call — intrinsic to the rule set or a call
//     whose summary returns fresh obligations;
//  2. escape scan: drop obligations that are deferred-released, captured by a
//     nested function literal, or transferred out of the function;
//  3. path walk: simulate the statement list, forking the environment at
//     branches, discharging obligations at release calls and summarized
//     always-releasing callees, and reporting any obligation still open when
//     a path exits the function.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// obRules parameterizes the obligation engine for one analyzer.
type obRules struct {
	// name keys this rule set's summary table in the ModuleIndex; empty
	// disables summary consults.
	name string

	// acquire reports whether call creates obligations, which of the call's
	// result indices carry them, and a short description for diagnostics.
	acquire func(p *Pass, call *ast.CallExpr) (desc string, idxs []int, ok bool)

	// paramType reports whether a parameter (or result) type can carry this
	// rule set's obligation, with the description used in diagnostics. The
	// summary layer seeds matching parameters as obligations.
	paramType func(p *Pass, t types.Type) (string, bool)

	// releaseRecv holds method names that discharge the obligation when
	// invoked with the obligation value as the root of the receiver chain
	// (sp.SetRows(1).End() discharges sp).
	releaseRecv map[string]bool

	// validRelease, when set, vets a candidate release call (the method name
	// already matched); use it to pin the receiver type.
	validRelease func(p *Pass, call *ast.CallExpr) bool

	// leakVerb completes "X is not <leakVerb> on every path".
	leakVerb string
}

// obligation is one tracked acquisition.
type obligation struct {
	v     *types.Var
	pos   token.Pos // acquire call position, where leaks are reported
	desc  string
	param int // parameter index in summary mode, -1 for acquired values

	// errVar is the error sibling of a `v, err := acquire()` form, if any: on
	// a path guarded by `err != nil` the acquisition failed and v carries no
	// obligation. Cleared per path once errVar is reassigned.
	errVar *types.Var

	// chain is the callee chain explaining why a hand-off attempt did not
	// discharge the obligation ("interproc.forwardLeak -> interproc.logSpan");
	// chainRel records whether the chain's end never releases or only
	// conditionally releases. The first recorded chain wins (walk order is
	// deterministic).
	chain    []string
	chainRel relStatus
}

// runObligations applies the rules to every function declaration and function
// literal in the package, reporting leaks.
func runObligations(p *Pass, rules *obRules) {
	var sums map[string]*FuncSummary
	if p.index != nil {
		sums = p.index.summaries(rules)
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeFuncBody(p, rules, fn.Body, sums)
				}
			case *ast.FuncLit:
				analyzeFuncBody(p, rules, fn.Body, sums)
			}
			return true
		})
	}
}

// obState is one obligation's status on the current path.
type obState struct {
	ob          *obligation
	released    bool
	releasedAny bool // released on some merged-away path, or conditionally by a callee
	errStale    bool // the error sibling was reassigned; nil-checks no longer vouch
}

type obEnv map[*types.Var]*obState

func (e obEnv) clone() obEnv {
	out := make(obEnv, len(e))
	for v, s := range e { //repolint:ordered environment copy is order-independent
		out[v] = &obState{ob: s.ob, released: s.released, releasedAny: s.releasedAny, errStale: s.errStale}
	}
	return out
}

// flowAnalysis is the per-function state of one obligation walk.
type flowAnalysis struct {
	p        *Pass
	rules    *obRules
	body     *ast.BlockStmt
	tracked  map[*types.Var]*obligation
	reported map[*types.Var]bool

	idx  *ModuleIndex
	sums map[string]*FuncSummary // summaries for rules.name, nil without an index
	sb   *summaryBuilder         // the summary accumulator; nil when analyzing
}

// summarizing reports whether the walk computes a summary instead of
// reporting leaks.
func (fa *flowAnalysis) summarizing() bool { return fa.sb != nil }

func analyzeFuncBody(p *Pass, rules *obRules, body *ast.BlockStmt, sums map[string]*FuncSummary) {
	fa := &flowAnalysis{
		p:        p,
		rules:    rules,
		body:     body,
		tracked:  map[*types.Var]*obligation{},
		reported: map[*types.Var]bool{},
		idx:      p.index,
		sums:     sums,
	}
	fa.collectObligations()
	if len(fa.tracked) == 0 {
		return
	}
	fa.dropEscapes()
	if len(fa.tracked) == 0 {
		return
	}
	env := obEnv{}
	terminated := fa.walkStmts(fa.body.List, env)
	if !terminated {
		fa.checkExit(env, fa.body.Rbrace)
	}
}

// ---- phase 1: collect obligations --------------------------------------

// acquire reports whether call creates obligations: intrinsically per the
// rule set, or because the callee's summary marks result indices as carrying
// fresh obligations (a constructor wrapping an acquire).
func (fa *flowAnalysis) acquire(call *ast.CallExpr) (string, []int, bool) {
	if desc, idxs, ok := fa.rules.acquire(fa.p, call); ok {
		return desc, idxs, ok
	}
	if fa.sums == nil {
		return "", nil, false
	}
	f := calleeFunc(fa.p.Info, call)
	if f == nil {
		return "", nil, false
	}
	sum := fa.sums[f.FullName()]
	if sum == nil {
		return "", nil, false
	}
	var idxs []int
	var desc string
	for i, r := range sum.Results {
		if r.Fresh {
			idxs = append(idxs, i)
			desc = r.Desc
		}
	}
	if len(idxs) == 0 {
		return "", nil, false
	}
	fa.countCross()
	return desc, idxs, true
}

// collectObligations finds simple assignments binding an acquiring call (or a
// setter chain rooted at one) to a local variable, plus acquiring calls whose
// result is discarded outright.
func (fa *flowAnalysis) collectObligations() {
	inspectSkipFuncLit(fa.body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			fa.collectAssign(st.Lhs, st.Rhs)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, id := range vs.Names {
							lhs[i] = id
						}
						fa.collectAssign(lhs, vs.Values)
					}
				}
			}
		case *ast.ExprStmt:
			fa.checkDiscarded(st.X)
		}
	})
}

// collectAssign inspects one assignment (or var declaration with values).
func (fa *flowAnalysis) collectAssign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// v, err := acquire(): obligations attach by result index, and the
		// error sibling guards failure paths (v is nil when err is non-nil).
		call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		desc, idxs, ok := fa.acquire(call)
		if !ok {
			return
		}
		var errv *types.Var
		for _, l := range lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
				if v := fa.objectOf(id); v != nil && isErrorType(v.Type()) {
					errv = v
				}
			}
		}
		for _, i := range idxs {
			if i < len(lhs) {
				if ob := fa.track(lhs[i], call, desc); ob != nil {
					ob.errVar = errv
				}
			}
		}
		return
	}
	for i, r := range rhs {
		if i >= len(lhs) {
			break
		}
		call, desc, ok := fa.acquireChainRoot(r)
		if !ok {
			continue
		}
		fa.track(lhs[i], call, desc)
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// track registers an obligation for an identifier target; a blank identifier
// discards the value and is reported immediately.
func (fa *flowAnalysis) track(target ast.Expr, call *ast.CallExpr, desc string) *obligation {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		// Assigned to a field, index or dereference: ownership moves into a
		// longer-lived structure — someone else's obligation now.
		return nil
	}
	if id.Name == "_" {
		if !fa.summarizing() {
			fa.p.Reportf(call.Pos(), "%s is discarded without being %s", desc, fa.rules.leakVerb)
		}
		return nil
	}
	v := fa.objectOf(id)
	if v == nil {
		return nil
	}
	ob := &obligation{v: v, pos: call.Pos(), desc: desc, param: -1}
	fa.tracked[v] = ob
	return ob
}

func (fa *flowAnalysis) objectOf(id *ast.Ident) *types.Var {
	if o, ok := fa.p.Info.Defs[id].(*types.Var); ok {
		return o
	}
	if o, ok := fa.p.Info.Uses[id].(*types.Var); ok {
		return o
	}
	return nil
}

// acquireChainRoot reports whether expr is an acquiring call, possibly
// extended by a chain of single-result method calls (tr.Start(..).SetRows(1)).
// A release method anywhere above the acquire discharges it in place.
func (fa *flowAnalysis) acquireChainRoot(expr ast.Expr) (*ast.CallExpr, string, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	if desc, idxs, ok := fa.acquire(call); ok {
		if len(idxs) == 1 && idxs[0] == 0 {
			return call, desc, true
		}
		return nil, "", false
	}
	// Not an acquire itself: if it is a method call, look down the receiver
	// chain for one, unless this link releases it.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	if fa.rules.releaseRecv[sel.Sel.Name] && fa.validRelease(call) {
		return nil, "", false
	}
	return fa.acquireChainRoot(sel.X)
}

// checkDiscarded reports an acquiring chain whose result is dropped on the
// floor as a bare expression statement without an in-chain release.
func (fa *flowAnalysis) checkDiscarded(expr ast.Expr) {
	if fa.summarizing() {
		return
	}
	call, desc, ok := fa.acquireChainRoot(expr)
	if ok {
		fa.p.Reportf(call.Pos(), "%s is discarded without being %s", desc, fa.rules.leakVerb)
	}
}

// ---- phase 2: escape scan ----------------------------------------------

// dropEscapes untracks obligations that are discharged for every path at once
// (defer v.End()) or whose ownership leaves the function (captured by a
// closure or a goroutine, stored, passed to an unsummarized function,
// returned). Summary mode also records the escape on the parameter.
func (fa *flowAnalysis) dropEscapes() {
	drop := map[*types.Var]bool{}
	var stack []ast.Node
	ast.Inspect(fa.body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := fa.p.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if _, tracked := fa.tracked[v]; !tracked || !fa.escapes(stack, id) {
			return true
		}
		if fa.summarizing() {
			if acc := fa.sb.params[v]; acc != nil {
				acc.escaped = true
			}
		}
		drop[v] = true
		return true
	})
	for v := range drop { //repolint:ordered map removal is order-independent
		delete(fa.tracked, v)
	}
}

// escapes reports whether one use of a tracked variable hands its obligation
// off, given the use's ancestor stack (outermost first, the identifier last).
func (fa *flowAnalysis) escapes(stack []ast.Node, id *ast.Ident) bool {
	// A use inside a nested function literal: a closure may (and in this
	// codebase does, e.g. deferred cleanups) release it, and a goroutine owns
	// what it captures — hand off.
	for _, n := range stack[:len(stack)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	// Walk outward past wrappers that keep the value in hand.
	i := len(stack) - 2
	child := ast.Node(id)
	for i >= 0 {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			child = parent
			i--
			continue
		case *ast.SelectorExpr:
			// v.Method or v.Field read: stay.
			return parent.X != child
		case *ast.IndexExpr:
			// v[i] element read does not move the slice's obligation; used as
			// an index is impossible for our types: bail out.
			return parent.X != child
		case *ast.SliceExpr:
			// v[lo:hi] re-slices alias the backing array — hand off.
			return true
		case *ast.CallExpr:
			if fun, ok := ast.Unparen(parent.Fun).(*ast.Ident); ok && fa.isBuiltin(fun) {
				// len and cap read; append, copy, ...: hand off.
				return fun.Name != "len" && fun.Name != "cap"
			}
			// go helper(v): the goroutine owns it now.
			if i > 0 {
				if g, ok := stack[i-1].(*ast.GoStmt); ok && g.Call == parent {
					return true
				}
			}
			// A summarized callee that releases (or visibly leaks) keeps the
			// obligation under this function's analysis; anything else is an
			// ownership hand-off.
			return !fa.argSummaryKeeps(parent, child)
		case *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt:
			return false // comparisons and conditions read, never transfer
		case *ast.RangeStmt:
			return parent.X != child // ranging over v reads it
		case *ast.AssignStmt:
			for _, r := range parent.Rhs {
				if ast.Unparen(r) == child {
					return true // aliased into another variable or location
				}
			}
			return false // left-hand side or part of a larger expression
		case *ast.ReturnStmt, *ast.ValueSpec, *ast.CompositeLit, *ast.KeyValueExpr,
			*ast.SendStmt, *ast.UnaryExpr, *ast.StarExpr, *ast.GoStmt:
			return true
		case *ast.DeferStmt:
			// defer v.Release() discharges on every exit; checked below via
			// the deferred call itself. A defer that does not release keeps
			// the obligation open, but reporting through an unrelated defer
			// would be noise — hand off.
			return !fa.deferReleases(parent, id)
		case *ast.ExprStmt, *ast.BlockStmt, *ast.CaseClause, *ast.CommClause,
			*ast.IncDecStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
			return false
		default:
			return true // unanticipated context: be permissive, hand off
		}
	}
	return false
}

// argSummaryKeeps reports whether passing child as an argument of call keeps
// the obligation tracked here: the callee has a summary for that parameter
// that either always releases it (the path walk will discharge it at the
// call) or visibly fails to (the leak reports at this function's acquirer
// with the callee chain).
func (fa *flowAnalysis) argSummaryKeeps(call *ast.CallExpr, child ast.Node) bool {
	if fa.sums == nil {
		return false
	}
	f := calleeFunc(fa.p.Info, call)
	if f == nil {
		return false
	}
	sum := fa.sums[f.FullName()]
	if sum == nil {
		return false
	}
	k := -1
	for i, a := range call.Args {
		if a == child || ast.Unparen(a) == child {
			k = i
			break
		}
	}
	if k < 0 {
		return false
	}
	pidx := summaryParamIndex(f, sum, k)
	if pidx < 0 {
		return false
	}
	ps := sum.Params[pidx]
	return ps.Tracked && !ps.Escapes
}

// summaryParamIndex maps a call-argument index onto the flattened parameter
// index of the callee's summary (receiver at 0 for methods, variadic tail
// collapsed onto the last parameter), or -1.
func summaryParamIndex(f *types.Func, sum *FuncSummary, k int) int {
	sig := funcSignature(f)
	if sig == nil {
		return -1
	}
	pidx := k
	if sig.Recv() != nil {
		pidx++
	}
	if pidx >= len(sum.Params) {
		if sig.Variadic() && len(sum.Params) > 0 {
			return len(sum.Params) - 1
		}
		return -1
	}
	return pidx
}

// deferReleases reports whether the deferred call discharges the identifier's
// obligation: defer v.End(), defer cur.Close().
func (fa *flowAnalysis) deferReleases(d *ast.DeferStmt, id *ast.Ident) bool {
	root := fa.releasedRoot(d.Call)
	return root != nil && fa.p.Info.Uses[root] == fa.p.Info.Uses[id]
}

// isBuiltin reports whether the identifier names a universe-scope builtin.
func (fa *flowAnalysis) isBuiltin(id *ast.Ident) bool {
	_, ok := fa.p.Info.Uses[id].(*types.Builtin)
	return ok
}

func (fa *flowAnalysis) validRelease(call *ast.CallExpr) bool {
	if fa.rules.validRelease == nil {
		return true
	}
	return fa.rules.validRelease(fa.p, call)
}

// ---- phase 3: path walk ------------------------------------------------

// walkStmts simulates a statement list, returning true when every path
// through it terminates (returns, branches away or panics).
func (fa *flowAnalysis) walkStmts(list []ast.Stmt, env obEnv) bool {
	for _, st := range list {
		if fa.walkStmt(st, env) {
			return true
		}
	}
	return false
}

func (fa *flowAnalysis) walkStmt(st ast.Stmt, env obEnv) bool {
	switch s := st.(type) {
	case *ast.ExprStmt:
		fa.scanExpr(s.X, env)
		return isPanicCall(fa.p, s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			fa.scanExpr(r, env)
		}
		for _, l := range s.Lhs {
			fa.scanExpr(l, env)
		}
		fa.staleErrGuards(s.Lhs, env)
		fa.openAssigned(s.Lhs, s.Rhs, env)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						fa.scanExpr(val, env)
					}
					if len(vs.Values) > 0 {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, id := range vs.Names {
							lhs[i] = id
						}
						fa.openAssigned(lhs, vs.Values, env)
					}
				}
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fa.scanExpr(r, env)
		}
		if fa.summarizing() {
			fa.recordReturn(s, env)
		}
		fa.checkExit(env, s.Pos())
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			fa.walkStmt(s.Init, env)
		}
		fa.scanExpr(s.Cond, env)
		thenEnv := env.clone()
		elseEnv := env.clone()
		if v, nonNilIsThen := fa.nilCheckVar(s.Cond); v != nil {
			// `if err != nil` guards the acquisition-failed path: sibling
			// obligations from `v, err := acquire()` never came alive there.
			guarded := elseEnv
			if nonNilIsThen {
				guarded = thenEnv
			}
			for _, st := range guarded { //repolint:ordered per-state flag update, order-independent
				if st.ob.errVar == v && !st.errStale {
					st.released = true
				}
			}
			// `if v != nil { v.Close() }` over the obligation value itself:
			// on the nil branch there is nothing to release — the release is
			// vacuously satisfied there.
			nilEnv := thenEnv
			if nonNilIsThen {
				nilEnv = elseEnv
			}
			if st, ok := nilEnv[v]; ok {
				st.released = true
			}
		}
		thenTerm := fa.walkStmts(s.Body.List, thenEnv)
		elseTerm := false
		if s.Else != nil {
			elseTerm = fa.walkStmt(s.Else, elseEnv)
		}
		return mergeEnvs(env, []obEnv{thenEnv, elseEnv}, []bool{thenTerm, elseTerm})
	case *ast.BlockStmt:
		return fa.walkStmts(s.List, env)
	case *ast.ForStmt:
		if s.Init != nil {
			fa.walkStmt(s.Init, env)
		}
		if s.Cond != nil {
			fa.scanExpr(s.Cond, env)
		}
		bodyEnv := env.clone()
		fa.walkStmts(s.Body.List, bodyEnv)
		if s.Post != nil {
			fa.walkStmt(s.Post, bodyEnv)
		}
		// The body may run zero times: merge it with the fall-through path.
		// (An infinite `for {}` that always returns still terminated inside.)
		mergeEnvs(env, []obEnv{bodyEnv, env.clone()}, []bool{false, false})
		return false
	case *ast.RangeStmt:
		fa.scanExpr(s.X, env)
		bodyEnv := env.clone()
		fa.walkStmts(s.Body.List, bodyEnv)
		mergeEnvs(env, []obEnv{bodyEnv, env.clone()}, []bool{false, false})
		return false
	case *ast.SwitchStmt:
		if s.Init != nil {
			fa.walkStmt(s.Init, env)
		}
		if s.Tag != nil {
			fa.scanExpr(s.Tag, env)
		}
		return fa.walkCases(s.Body, env, hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			fa.walkStmt(s.Init, env)
		}
		return fa.walkCases(s.Body, env, hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		return fa.walkCases(s.Body, env, false)
	case *ast.DeferStmt:
		// defer v.End() discharges the obligation on every path that reaches
		// this statement (paths exiting earlier still count as open), and so
		// does defer helper(v) with an always-releasing helper; conditional or
		// never-releasing helpers keep the obligation open and the consult
		// records the callee chain.
		fa.scanExpr(s.Call, env)
		return false
	case *ast.GoStmt:
		// go sp.End(): an asynchronous release still reaches the release
		// method — count it.
		fa.scanExpr(s.Call, env)
		return false
	case *ast.BranchStmt:
		// break/continue/goto leave the structured path; the loop merge
		// already assumes the body may not complete, so stop here without an
		// exit check (the function has not been left).
		return true
	case *ast.LabeledStmt:
		return fa.walkStmt(s.Stmt, env)
	case *ast.SendStmt:
		fa.scanExpr(s.Chan, env)
		fa.scanExpr(s.Value, env)
		return false
	case *ast.IncDecStmt:
		fa.scanExpr(s.X, env)
		return false
	case *ast.EmptyStmt:
		return false
	}
	return false
}

// walkCases simulates every case body of a switch/select from the incoming
// environment and merges the results. Without a default (or for selects with
// no always-taken arm) the incoming path itself joins the merge.
func (fa *flowAnalysis) walkCases(body *ast.BlockStmt, env obEnv, exhaustive bool) bool {
	var envs []obEnv
	var terms []bool
	for _, cl := range body.List {
		caseEnv := env.clone()
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				fa.scanExpr(e, caseEnv)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				fa.walkStmt(c.Comm, caseEnv)
			}
			stmts = c.Body
		}
		terms = append(terms, fa.walkStmts(stmts, caseEnv))
		envs = append(envs, caseEnv)
	}
	if !exhaustive {
		envs = append(envs, env.clone())
		terms = append(terms, false)
	}
	return mergeEnvs(env, envs, terms)
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// mergeEnvs folds branch environments back into env. An obligation counts as
// released only if every non-terminated branch released it; terminated
// branches already ran their own exit checks. Returns true when every branch
// terminated (nothing flows past the statement).
func mergeEnvs(env obEnv, branches []obEnv, terminated []bool) bool {
	live := 0
	for i := range branches {
		if !terminated[i] {
			live++
		}
	}
	if live == 0 {
		return true
	}
	// Collect every obligation seen in any live branch (they may have been
	// opened inside a branch).
	seen := map[*types.Var]*obligation{}
	for i, b := range branches {
		if terminated[i] {
			continue
		}
		for v, s := range b { //repolint:ordered merged set is rebuilt, order-independent
			seen[v] = s.ob
		}
	}
	for v, ob := range seen { //repolint:ordered merge is per-variable, order-independent
		// A branch that never acquired the obligation cannot leak it, so only
		// branches that hold it open count against the merge (this keeps an
		// acquire+release wholly inside a loop body from reading as open on
		// the zero-iteration path).
		releasedAll := true
		releasedAny := false
		stale := false
		for i, b := range branches {
			if terminated[i] {
				continue
			}
			if s, ok := b[v]; ok {
				if !s.released {
					releasedAll = false
				}
				if s.released || s.releasedAny {
					releasedAny = true
				}
				if s.errStale {
					stale = true
				}
			}
		}
		env[v] = &obState{ob: ob, released: releasedAll, releasedAny: releasedAny, errStale: stale}
	}
	return false
}

// staleErrGuards marks obligations whose error sibling is overwritten by this
// assignment: a later `err != nil` check then refers to a different failure
// and no longer exempts the obligation. (The acquiring assignment itself
// re-opens its obligations afterwards with a fresh state.)
func (fa *flowAnalysis) staleErrGuards(lhs []ast.Expr, env obEnv) {
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		w := fa.objectOf(id)
		if w == nil {
			continue
		}
		for _, s := range env { //repolint:ordered per-state flag update, order-independent
			if s.ob.errVar == w {
				s.errStale = true
			}
		}
	}
}

// nilCheckVar decodes a `x != nil` / `x == nil` condition over a plain
// identifier, returning the variable and whether the non-nil outcome selects
// the then-branch.
func (fa *flowAnalysis) nilCheckVar(cond ast.Expr) (*types.Var, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	var side ast.Expr
	switch {
	case fa.isNil(y):
		side = x
	case fa.isNil(x):
		side = y
	default:
		return nil, false
	}
	id, ok := side.(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, _ := fa.p.Info.Uses[id].(*types.Var)
	return v, be.Op == token.NEQ
}

func (fa *flowAnalysis) isNil(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := fa.p.Info.Uses[id].(*types.Nil)
	return isNil
}

// openAssigned registers obligations created by an assignment on the current
// path (phase 1 found the same sites; here they gain a position in the walk).
func (fa *flowAnalysis) openAssigned(lhs, rhs []ast.Expr, env obEnv) {
	bind := func(target ast.Expr, ob *obligation) {
		id, ok := ast.Unparen(target).(*ast.Ident)
		if !ok {
			return
		}
		v := fa.objectOf(id)
		if v == nil {
			return
		}
		if tracked, ok := fa.tracked[v]; ok && tracked == ob {
			env[v] = &obState{ob: ob}
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		_, idxs, ok := fa.acquire(call)
		if !ok {
			return
		}
		for _, i := range idxs {
			if i < len(lhs) {
				if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok {
					if v := fa.objectOf(id); v != nil {
						if ob, tracked := fa.tracked[v]; tracked {
							bind(lhs[i], ob)
						}
					}
				}
			}
		}
		return
	}
	for i, r := range rhs {
		if i >= len(lhs) {
			break
		}
		if call, _, ok := fa.acquireChainRoot(r); ok {
			if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok {
				if v := fa.objectOf(id); v != nil {
					if ob, tracked := fa.tracked[v]; tracked && ob.pos == call.Pos() {
						bind(lhs[i], ob)
					}
				}
			}
		}
	}
}

// recordReturn (summary mode) marks result indices whose returned value
// carries an open obligation acquired inside this function: the function is
// a constructor and its callers inherit the obligation.
func (fa *flowAnalysis) recordReturn(s *ast.ReturnStmt, env obEnv) {
	if len(s.Results) == 1 {
		// A lone call expression forwards all of the callee's results.
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			if desc, idxs, ok := fa.acquire(call); ok {
				for _, k := range idxs {
					fa.sb.setFresh(k, desc)
				}
				return
			}
		}
	}
	for i, r := range s.Results {
		r = ast.Unparen(r)
		if id, ok := r.(*ast.Ident); ok {
			if v, ok := fa.p.Info.Uses[id].(*types.Var); ok {
				if st, tracked := env[v]; tracked && !st.released && st.ob.param < 0 {
					fa.sb.setFresh(i, st.ob.desc)
				}
			}
			continue
		}
		if call, ok := r.(*ast.CallExpr); ok {
			if desc, idxs, ok := fa.acquire(call); ok && len(idxs) == 1 && idxs[0] == 0 {
				fa.sb.setFresh(i, desc)
			}
		}
	}
}

// scanExpr processes one expression on the current path: applies releases
// and summary consults. Nested function literals are opaque (analyzed
// separately).
func (fa *flowAnalysis) scanExpr(expr ast.Expr, env obEnv) {
	if expr == nil {
		return
	}
	inspectSkipFuncLit(expr, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if root := fa.releasedRoot(call); root != nil {
			if v, ok := fa.p.Info.Uses[root].(*types.Var); ok {
				if s, tracked := env[v]; tracked {
					s.released = true
				}
			}
		}
		fa.consultCall(call, env)
	})
}

// consultCall applies the callee's summary to tracked obligations passed as
// receiver or arguments: an always-releasing callee discharges them, a
// conditionally- or never-releasing callee records the callee chain for the
// eventual leak diagnostic.
func (fa *flowAnalysis) consultCall(call *ast.CallExpr, env obEnv) {
	if fa.sums == nil {
		return
	}
	f := calleeFunc(fa.p.Info, call)
	if f == nil {
		return
	}
	sum := fa.sums[f.FullName()]
	if sum == nil {
		return
	}
	// Receiver position: a module method that closes (or conditionally
	// closes) its own receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(sum.Params) > 0 {
		if sig := funcSignature(f); sig != nil && sig.Recv() != nil {
			if root := chainRootIdent(sel.X); root != nil {
				if v, ok := fa.p.Info.Uses[root].(*types.Var); ok {
					if s, tracked := env[v]; tracked && !s.released {
						fa.applyParamSummary(f, sum.Params[0], s, true)
					}
				}
			}
		}
	}
	for k, a := range call.Args {
		id, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := fa.p.Info.Uses[id].(*types.Var)
		if !ok {
			continue
		}
		s, tracked := env[v]
		if !tracked || s.released {
			continue
		}
		pidx := summaryParamIndex(f, sum, k)
		if pidx < 0 {
			continue
		}
		fa.applyParamSummary(f, sum.Params[pidx], s, false)
	}
}

// applyParamSummary acts on one (obligation, callee parameter) pairing.
func (fa *flowAnalysis) applyParamSummary(callee *types.Func, ps ParamSummary, s *obState, recvPos bool) {
	if !ps.Tracked || ps.Escapes {
		return
	}
	switch ps.Status {
	case relAlways:
		s.released = true
		fa.countCross()
	case relCond:
		s.releasedAny = true
		fa.recordChain(callee, ps, s, relCond)
	case relNever:
		if recvPos {
			return // ordinary method use, not a hand-off attempt
		}
		fa.recordChain(callee, ps, s, relNever)
	}
}

// recordChain attaches the callee chain to the obligation (analyze mode) or
// to the summary accumulator (summary mode).
func (fa *flowAnalysis) recordChain(callee *types.Func, ps ParamSummary, s *obState, rel relStatus) {
	chain := buildChain(fa.selfName(), callee, ps.Chain)
	if fa.summarizing() {
		if acc := fa.sb.params[s.ob.v]; acc != nil && acc.chain == nil {
			acc.chain = chain
		}
		return
	}
	if s.ob.chain == nil {
		s.ob.chain = chain
		s.ob.chainRel = rel
	}
	fa.countCross()
}

// selfName is the function under summarization, for chain self-skips.
func (fa *flowAnalysis) selfName() string {
	if fa.sb != nil && fa.sb.self != nil {
		return shortFuncName(fa.sb.self)
	}
	return ""
}

// countCross bumps the module's cross-function obligation counter (the
// verify.sh coverage stat); only the analyzers' walk counts, not summaries.
func (fa *flowAnalysis) countCross() {
	if !fa.summarizing() && fa.idx != nil {
		fa.idx.crossFunc++
	}
}

// releasedRoot returns the identifier whose obligation the call discharges —
// the receiver-chain root of a releaseRecv method — or nil.
func (fa *flowAnalysis) releasedRoot(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !fa.rules.releaseRecv[sel.Sel.Name] || !fa.validRelease(call) {
		return nil
	}
	return chainRootIdent(sel.X)
}

// chainRootIdent walks a method-call chain (sp.SetRows(1).Attr("k", 2)) down
// to the identifier it is rooted at, or nil for non-chain receivers.
func chainRootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.CallExpr:
			sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			expr = sel.X
		default:
			return nil
		}
	}
}

// checkExit resolves every obligation still open when a path leaves the
// function: analyze mode reports leaks at the acquire site, summary mode
// records the exit outcome per parameter.
func (fa *flowAnalysis) checkExit(env obEnv, exit token.Pos) {
	if fa.summarizing() {
		for v, acc := range fa.sb.params { //repolint:ordered per-param counters, order-independent
			s, ok := env[v]
			if !ok {
				continue // escaped before the walk; the escape bits tell the story
			}
			switch {
			case s.released:
				acc.rel++
			case s.releasedAny:
				acc.cond++
			default:
				acc.open++
			}
		}
		return
	}
	var vars []*types.Var
	for v, s := range env { //repolint:ordered sorted below before reporting
		if s.released || fa.reported[v] {
			continue
		}
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		fa.reported[v] = true
		ob := env[v].ob
		msg := fmt.Sprintf("%s %q is not %s on every path: function exit at line %d",
			ob.desc, v.Name(), fa.rules.leakVerb, fa.p.Fset.Position(exit).Line)
		if len(ob.chain) > 0 {
			verb := "never releases it"
			if ob.chainRel == relCond {
				verb = "releases it only on some paths"
			}
			msg += fmt.Sprintf(" (passed to %s, which %s)", strings.Join(ob.chain, " -> "), verb)
		}
		fa.p.report(ob.pos, ob.chain, "%s", msg)
	}
}

// isPanicCall reports whether the expression statement unconditionally stops
// the function: panic(...), os.Exit(...), log.Fatal*(...).
func isPanicCall(p *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := p.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		if f := calleeFunc(p.Info, call); f != nil && f.Pkg() != nil {
			switch f.Pkg().Path() {
			case "os":
				return f.Name() == "Exit"
			case "log":
				return f.Name() == "Fatal" || f.Name() == "Fatalf" || f.Name() == "Fatalln"
			}
		}
	}
	return false
}

// inspectSkipFuncLit walks the AST under root, skipping nested function
// literals (each is analyzed as its own function).
func inspectSkipFuncLit(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
