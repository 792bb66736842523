// Package profile is the post-hoc profiler for the observability layer: it
// consumes a finished obs.Trace and attributes every virtual nanosecond and
// every counter delta of a build to the span that spent it.
//
// Two analyses come out of one Compute pass:
//
//   - Per-span cost attribution. Every span carries the counter vector of its
//     clock domain captured at its start and end boundaries (obs.Span.Deltas),
//     so its inclusive cost is exact; exclusive cost — time and counters —
//     is inclusive cost less the children's. That is exact because a proc
//     has one tracer, so its spans nest: each child lies inside its parent
//     and siblings are disjoint. Exclusive times plus the time no root
//     covers sum to the proc's total, which TestAttributionSumsToTotal
//     asserts together with the nesting itself.
//
//   - An EXPLAIN ANALYZE-style report (report.go): a deterministic text
//     tree mirroring the build — batches, scans, stages, fallback arms —
//     with inclusive/exclusive costs and percent of total, and the batches
//     rolled up by tree level.
//     Byte-identical across GOMAXPROCS and reruns,
//     same as the traces it reads.
package profile

import (
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Profile is the full result of one Compute pass: one Proc per virtual-clock
// domain in the trace, in registration order.
type Profile struct {
	Procs []*Proc
}

// Proc is the profile of one virtual-clock domain (one build).
type Proc struct {
	ID    int
	Label string

	TotalNS        int64 // end of the last span
	AttributedNS   int64 // sum of exclusive times over the span forest
	UnattributedNS int64 // TotalNS less the roots' inclusive times
	Spans          int

	// Counters holds the proc's total counter values (the sum of the root
	// spans' inclusive deltas), keyed by counter name, non-zero entries only.
	Counters map[string]int64

	Roots    []*Node
	ByCat    []Rollup
	BySource []Rollup
	ByLevel  []LevelRollup
	Hot      []HotSpan
}

// Node is one span in the attribution forest.
type Node struct {
	ID       int64
	Cat      string
	Name     string
	Source   string
	StartNS  int64
	InclNS   int64
	ExclNS   int64
	PctBP    int64 // exclusive time in basis points of the proc total
	Rows     int64
	CC       []obs.NodeCC
	Attrs    []obs.Attr
	Children []*Node

	parent  int64 // parent span id, 0 = root
	inclVec sim.CounterVec
	exclVec sim.CounterVec
}

// EndNS returns the node's span end time.
func (n *Node) EndNS() int64 { return n.StartNS + n.InclNS }

// Rollup aggregates exclusive costs over one span dimension (category or
// source tier).
type Rollup struct {
	Key    string
	Spans  int
	InclNS int64
	ExclNS int64
	PctBP  int64

	vec sim.CounterVec // exclusive deltas
}

// LevelRollup aggregates one tree level: the batches serving it (from the
// batch spans' "level" attribute, a batch's shallowest node), and the counts
// requests at that depth its scans and fallbacks answered (obs.NodeCC), with
// how each request's §4.2.1 estimate compares with the entries counted: the
// ratio actual / estimate in thousandths, over the nodes with a positive
// estimate. A batch that mixes depths files its time under its shallowest
// level and each node under its own.
type LevelRollup struct {
	Level   int64
	Batches int
	InclNS  int64 // summed inclusive batch time
	StartNS int64
	EndNS   int64

	Nodes            int   // counts requests answered
	MedianRatioPM    int64 // the lower median of actual / estimate, per mille
	MaxRatioPM       int64
	FallbackNoFit    int // fallbacks by kind (obs.FallbackNoFit, obs.FallbackOverflow)
	FallbackOverflow int

	vec    sim.CounterVec // inclusive deltas
	ratios []int64
}

// HotSpan is one entry of the top-exclusive-time table.
type HotSpan struct {
	ID     int64
	Cat    string
	Name   string
	Source string
	ExclNS int64
	PctBP  int64
}

// pctBP returns v as basis points (hundredths of a percent) of total.
func pctBP(v, total int64) int64 {
	if total <= 0 {
		return 0
	}
	return v * 10_000 / total
}

// Compute profiles a finished trace. The trace must be quiescent: no spans
// may be opened or ended during or after the call.
func Compute(t *obs.Trace) *Profile {
	p := &Profile{}
	t.EachProc(func(pv obs.ProcView) {
		p.Procs = append(p.Procs, ComputeProc(pv))
	})
	return p
}

// ComputeProc profiles one proc of a finished trace.
func ComputeProc(pv obs.ProcView) *Proc {
	proc := &Proc{ID: pv.ID, Label: pv.Name}

	byID := make(map[int64]*Node, len(pv.Spans))
	nodes := make([]*Node, 0, len(pv.Spans))
	for _, s := range pv.Spans {
		n := newNode(s)
		nodes = append(nodes, n)
		byID[n.ID] = n
	}
	proc.Spans = len(nodes)

	// Link the forest. A parent id that resolves to no node (or 0) makes the
	// span a root.
	var roots []*Node
	for _, n := range nodes {
		if parent := byID[n.parent]; parent != nil {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
		if end := n.EndNS(); end > proc.TotalNS {
			proc.TotalNS = end
		}
	}
	sortNodes(roots)
	proc.Roots = roots

	// Exclusive cost: the spans nest, so a span's own time and counters are
	// its inclusive ones less its children's, and the time no root covers is
	// unattributed.
	for _, n := range nodes {
		sortNodes(n.Children)
		n.ExclNS, n.exclVec = n.InclNS, n.inclVec
		for _, c := range n.Children {
			n.ExclNS -= c.InclNS
			n.exclVec.Sub(&c.inclVec)
		}
		proc.AttributedNS += n.ExclNS
		n.PctBP = pctBP(n.ExclNS, proc.TotalNS)
	}
	var counters sim.CounterVec
	proc.UnattributedNS = proc.TotalNS
	for _, r := range roots {
		proc.UnattributedNS -= r.InclNS
		counters.Add(&r.inclVec)
	}
	proc.Counters = counterMap(&counters)

	proc.ByCat = rollupBy(nodes, proc.TotalNS, func(n *Node) string { return n.Cat })
	proc.BySource = rollupBy(nodes, proc.TotalNS, func(n *Node) string { return n.Source })
	proc.ByLevel = rollupLevels(nodes)
	proc.Hot = hotSpans(nodes, proc.TotalNS)
	return proc
}

func newNode(s *obs.Span) *Node {
	n := &Node{
		ID: s.ID, Cat: s.Cat, Name: s.Name, Source: s.Source,
		StartNS: s.Start, InclNS: s.Dur, Rows: s.Rows,
		CC: s.CC, Attrs: s.Attrs, parent: s.Parent,
	}
	if s.Deltas != nil {
		n.inclVec = *s.Deltas
	}
	return n
}

// sortNodes orders siblings by start time, then id — the deterministic
// rendering order.
func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].StartNS != ns[j].StartNS {
			return ns[i].StartNS < ns[j].StartNS
		}
		return ns[i].ID < ns[j].ID
	})
}

// rollupBy aggregates exclusive costs by a key function, skipping empty keys,
// sorted by descending exclusive time then key.
func rollupBy(nodes []*Node, totalNS int64, key func(*Node) string) []Rollup {
	idx := map[string]int{}
	var out []Rollup
	for _, n := range nodes {
		k := key(n)
		if k == "" {
			continue
		}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Rollup{Key: k})
		}
		out[i].Spans++
		out[i].InclNS += n.InclNS
		out[i].ExclNS += n.ExclNS
		out[i].vec.Add(&n.exclVec)
	}
	for i := range out {
		out[i].PctBP = pctBP(out[i].ExclNS, totalNS)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExclNS != out[j].ExclNS {
			return out[i].ExclNS > out[j].ExclNS
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// rollupLevels aggregates batch spans by their "level" attribute, and the
// counts requests their child spans answered by each request's depth.
func rollupLevels(nodes []*Node) []LevelRollup {
	byLevel := map[int64]*LevelRollup{}
	at := func(lvl int64) *LevelRollup {
		if byLevel[lvl] == nil {
			byLevel[lvl] = &LevelRollup{Level: lvl}
		}
		return byLevel[lvl]
	}
	for _, n := range nodes {
		if n.Cat != obs.CatBatch {
			continue
		}
		lvl := obs.AttrInt(n.Attrs, "level", -1)
		if lvl < 0 {
			continue
		}
		l := at(lvl)
		if l.Batches == 0 || n.StartNS < l.StartNS {
			l.StartNS = n.StartNS
		}
		if e := n.EndNS(); e > l.EndNS {
			l.EndNS = e
		}
		l.Batches++
		l.InclNS += n.InclNS
		l.vec.Add(&n.inclVec)
		for _, c := range n.Children {
			kind := obs.AttrInt(c.Attrs, "kind", 0)
			for _, cc := range c.CC {
				at(int64(cc.Depth)).addCC(cc, kind)
			}
		}
	}
	out := make([]LevelRollup, 0, len(byLevel))
	//repolint:ordered collect-then-sort
	for _, l := range byLevel {
		if len(l.ratios) > 0 {
			slices.Sort(l.ratios)
			l.MedianRatioPM, l.MaxRatioPM = l.ratios[(len(l.ratios)-1)/2], l.ratios[len(l.ratios)-1]
		}
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}

// addCC adds one counts request, answered by a scan or by a fallback of the
// given kind.
func (l *LevelRollup) addCC(c obs.NodeCC, kind int64) {
	switch kind {
	case obs.FallbackNoFit:
		l.FallbackNoFit++
	case obs.FallbackOverflow:
		l.FallbackOverflow++
	}
	l.Nodes++
	if c.EstCC > 0 {
		l.ratios = append(l.ratios, c.CCEntries*1000/c.EstCC)
	}
}

// hotSpans returns the top spans by exclusive time (at most 10, non-zero
// only), ties broken by id.
func hotSpans(nodes []*Node, totalNS int64) []HotSpan {
	byCost := append([]*Node(nil), nodes...)
	sort.Slice(byCost, func(i, j int) bool {
		if byCost[i].ExclNS != byCost[j].ExclNS {
			return byCost[i].ExclNS > byCost[j].ExclNS
		}
		return byCost[i].ID < byCost[j].ID
	})
	var out []HotSpan
	for _, n := range byCost {
		if n.ExclNS == 0 || len(out) == 10 {
			break
		}
		out = append(out, HotSpan{
			ID: n.ID, Cat: n.Cat, Name: n.Name, Source: n.Source,
			ExclNS: n.ExclNS, PctBP: pctBP(n.ExclNS, totalNS),
		})
	}
	return out
}

// counterMap converts a counter vector to a name-keyed map. Nil when
// all-zero.
func counterMap(v *sim.CounterVec) map[string]int64 {
	if v.IsZero() {
		return nil
	}
	out := make(map[string]int64)
	v.EachNonZero(func(c sim.Counter, n int64) {
		out[c.String()] = n
	})
	return out
}
