package analysis

// This file implements the whole-module function-summary layer behind the
// obligation analyzers: a fixed-point pass over the module's call graph that
// computes, per function, (a) which parameters' obligations it always /
// conditionally / never releases, (b) which result indices carry fresh
// obligations (constructors wrapping an acquire are themselves acquire
// sites), and (c) whether an obligation escapes into a goroutine, a struct
// field, a global or an unsummarized callee. The obligation engine (flow.go)
// consults these summaries instead of treating every call as an ownership
// hand-off.
//
// Summaries are keyed by types.Func.FullName(): a *types.Func seen through a
// source-checked package and the same function seen through export data are
// different objects, but their full names agree, so the string key is the
// stable cross-package identity.
//
// The lattice per parameter is relAlways > relCond > relNever. The fixed
// point starts optimistic (every matching parameter relAlways, no result
// fresh, no escapes) and descends: that way an always-releasing recursive
// helper converges to relAlways instead of being pessimized to relCond by
// its own cycle, while a helper that only releases on its recursive path
// settles at relCond. Result freshness and escape bits only ever turn on.
// Iteration visits functions in sorted FullName order, so the computation —
// and every diagnostic derived from it — is deterministic.

import (
	"go/ast"
	"go/types"
	"sort"
)

// relStatus is a parameter's release status in the summary lattice.
type relStatus int

const (
	relNever  relStatus = iota // no path through the callee releases it
	relCond                    // some paths release it, some leave it open
	relAlways                  // every path releases it (or vacuously: nil)
)

// ParamSummary describes what a function does with one parameter's
// obligation. Index 0 is the receiver for methods; explicit parameters
// follow, shifted by one.
type ParamSummary struct {
	Tracked bool      // the parameter's type matches the analyzer's obligation type
	Status  relStatus // release status over all paths
	Escapes bool      // stored, returned, re-sliced, captured or passed beyond the summary's sight
	Chain   []string  // callee chain explaining a relNever/relCond status
}

// ResultSummary describes one result index of a function.
type ResultSummary struct {
	Fresh bool   // the result carries a fresh obligation acquired inside
	Desc  string // obligation description for caller diagnostics
}

// FuncSummary is one function's obligation summary under one rule set.
type FuncSummary struct {
	Params  []ParamSummary
	Results []ResultSummary
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	if len(s.Params) != len(o.Params) || len(s.Results) != len(o.Results) {
		return false
	}
	for i := range s.Params {
		a, b := s.Params[i], o.Params[i]
		if a.Tracked != b.Tracked || a.Status != b.Status || a.Escapes != b.Escapes ||
			len(a.Chain) != len(b.Chain) {
			return false
		}
		for j := range a.Chain {
			if a.Chain[j] != b.Chain[j] {
				return false
			}
		}
	}
	for i := range s.Results {
		if s.Results[i] != o.Results[i] {
			return false
		}
	}
	return true
}

// funcNode is one module function in the index.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pass *Pass // synthetic pass over the declaring package
}

// ModuleStats is the one-line summary-coverage figure verify.sh prints.
type ModuleStats struct {
	Functions int // functions summarized (module-wide, per rule set)
	CrossFunc int // cross-function obligation events seen while analyzing
}

// ModuleIndex holds every function declaration of the loaded packages plus
// the per-rule-set summary tables, computed lazily to a fixed point.
type ModuleIndex struct {
	funcs map[string]*funcNode
	names []string // sorted keys of funcs: the deterministic iteration order

	sums  map[string]map[string]*FuncSummary // rules.name -> FullName -> summary
	iters map[string]int                     // rules.name -> fixed-point iterations

	crossFunc int // summary-driven discharges, chains and acquires (analyze mode)
}

// summaryMaxIter caps the fixed point; chains are deduplicated and capped,
// so convergence is expected in call-graph-depth iterations, far below this.
const summaryMaxIter = 32

// maxChainLen bounds the callee chain carried in diagnostics.
const maxChainLen = 4

// summaryAnalyzer names the synthetic passes the index walks functions with;
// summary mode never reports, so the name only matters for debugging.
var summaryAnalyzer = &Analyzer{Name: "summary", Doc: "internal summary computation"}

// NewModuleIndex builds the function index over the loaded packages.
func NewModuleIndex(pkgs []*Package) *ModuleIndex {
	idx := &ModuleIndex{
		funcs: map[string]*funcNode{},
		sums:  map[string]map[string]*FuncSummary{},
		iters: map[string]int{},
	}
	for _, pkg := range pkgs {
		var discard []Diagnostic
		pass := &Pass{
			Analyzer: summaryAnalyzer,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Module:   pkg.Module,
			pkg:      pkg,
			diags:    &discard,
		}
		for _, fd := range pkg.FuncDecls() {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			idx.funcs[fn.FullName()] = &funcNode{fn: fn, decl: fd, pass: pass}
		}
	}
	idx.names = make([]string, 0, len(idx.funcs))
	for name := range idx.funcs { //repolint:ordered sorted immediately below
		idx.names = append(idx.names, name)
	}
	sort.Strings(idx.names)
	return idx
}

// Stats reports the module-wide coverage counters.
func (idx *ModuleIndex) Stats() ModuleStats {
	return ModuleStats{Functions: len(idx.funcs), CrossFunc: idx.crossFunc}
}

// summaries returns the fixed-point summary table for one rule set,
// computing and caching it on first use.
func (idx *ModuleIndex) summaries(rules *obRules) map[string]*FuncSummary {
	if rules.name == "" || rules.paramType == nil {
		return nil
	}
	if s, ok := idx.sums[rules.name]; ok {
		return s
	}
	cur := map[string]*FuncSummary{}
	for _, name := range idx.names {
		cur[name] = idx.skeleton(idx.funcs[name], rules)
	}
	iters := 0
	for iters < summaryMaxIter {
		iters++
		changed := false
		for _, name := range idx.names {
			ns := idx.summarize(idx.funcs[name], rules, cur)
			if !ns.equal(cur[name]) {
				changed = true
				cur[name] = ns
			}
		}
		if !changed {
			break
		}
	}
	idx.iters[rules.name] = iters
	idx.sums[rules.name] = cur
	return cur
}

// paramVars flattens a function's receiver and parameters into one slice;
// summaries index into it (receiver at 0 for methods).
func paramVars(fn *types.Func) []*types.Var {
	sig := funcSignature(fn)
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// skeleton is the optimistic starting summary: every matching parameter
// relAlways with no escapes, every result not fresh.
func (idx *ModuleIndex) skeleton(node *funcNode, rules *obRules) *FuncSummary {
	vars := paramVars(node.fn)
	sig := funcSignature(node.fn)
	fs := &FuncSummary{
		Params:  make([]ParamSummary, len(vars)),
		Results: make([]ResultSummary, sig.Results().Len()),
	}
	for i, v := range vars {
		if _, ok := rules.paramType(node.pass, v.Type()); ok {
			fs.Params[i] = ParamSummary{Tracked: true, Status: relAlways}
		}
	}
	return fs
}

// summarize runs the obligation engine over one function body in summary
// mode: parameters matching the rule set are seeded as obligations, callee
// consults use the current table, and the per-exit release statuses are
// aggregated into the lattice.
func (idx *ModuleIndex) summarize(node *funcNode, rules *obRules, cur map[string]*FuncSummary) *FuncSummary {
	vars := paramVars(node.fn)
	sig := funcSignature(node.fn)
	fs := &FuncSummary{
		Params:  make([]ParamSummary, len(vars)),
		Results: make([]ResultSummary, sig.Results().Len()),
	}
	sb := &summaryBuilder{
		params: map[*types.Var]*paramAcc{},
		fresh:  map[int]string{},
		self:   node.fn,
	}
	fa := &flowAnalysis{
		p:        node.pass,
		rules:    rules,
		body:     node.decl.Body,
		tracked:  map[*types.Var]*obligation{},
		reported: map[*types.Var]bool{},
		idx:      idx,
		sums:     cur,
		sb:       sb,
	}
	for i, v := range vars {
		desc, ok := rules.paramType(node.pass, v.Type())
		if !ok {
			continue
		}
		fs.Params[i].Tracked = true
		fa.tracked[v] = &obligation{v: v, pos: node.decl.Pos(), desc: desc, param: i}
		sb.params[v] = &paramAcc{}
	}
	fa.collectObligations()
	fa.dropEscapes()
	env := obEnv{}
	for v, ob := range fa.tracked { //repolint:ordered env seeding, order-independent
		if ob.param >= 0 {
			env[v] = &obState{ob: ob}
		}
	}
	if !fa.walkStmts(fa.body.List, env) {
		fa.checkExit(env, fa.body.Rbrace)
	}
	for i, v := range vars {
		if !fs.Params[i].Tracked {
			continue
		}
		acc := sb.params[v]
		fs.Params[i].Escapes = acc.escaped
		fs.Params[i].Status = acc.status()
		if fs.Params[i].Status != relAlways {
			fs.Params[i].Chain = acc.chain
		}
	}
	for i := range fs.Results {
		if desc, ok := sb.fresh[i]; ok {
			fs.Results[i] = ResultSummary{Fresh: true, Desc: desc}
		}
	}
	return fs
}

// summaryBuilder accumulates per-exit observations while summarizing one
// function.
type summaryBuilder struct {
	params map[*types.Var]*paramAcc
	fresh  map[int]string // result index -> obligation description
	self   *types.Func    // function under summarization, for chain self-skip
}

func (sb *summaryBuilder) setFresh(i int, desc string) {
	if _, ok := sb.fresh[i]; !ok {
		sb.fresh[i] = desc
	}
}

// paramAcc accumulates one parameter's per-exit release outcomes.
type paramAcc struct {
	rel, cond, open int
	chain           []string
	escaped         bool
}

// status folds the exit counts into the lattice. A function with no
// recorded exits (an infinite loop, or a parameter that escaped before the
// walk) is vacuously relAlways; the escape bits carry the real story then.
func (a *paramAcc) status() relStatus {
	switch {
	case a.open == 0 && a.cond == 0:
		return relAlways
	case a.rel == 0 && a.cond == 0:
		return relNever
	default:
		return relCond
	}
}

// shortFuncName renders a function for callee chains: package base plus
// name ("interproc.logSpan", "mw.mergeShards").
func shortFuncName(f *types.Func) string {
	return pkgBase(f.Pkg()) + "." + f.Name()
}

// buildChain prefixes the callee onto its own chain, skipping the function
// being summarized (self-recursion would otherwise grow the chain every
// fixed-point round), duplicates, and anything past the length cap.
func buildChain(self string, callee *types.Func, calleeChain []string) []string {
	name := shortFuncName(callee)
	out := []string{name}
	for _, c := range calleeChain {
		if len(out) >= maxChainLen {
			break
		}
		if c == name || c == self {
			continue
		}
		dup := false
		for _, have := range out {
			if have == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}
