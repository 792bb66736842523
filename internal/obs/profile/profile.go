// Package profile is the post-hoc profiler for the observability layer: it
// consumes a finished obs.Trace and attributes every virtual nanosecond and
// every counter delta of a build to the span that spent it.
//
// Two analyses come out of one Compute pass:
//
//   - Per-span cost attribution. Every span carries the counter vector of its
//     clock domain captured at its start and end boundaries (obs.Span.Deltas),
//     so its inclusive cost is exact; exclusive cost subtracts the children.
//     Exclusive virtual time is derived by a segment sweep that assigns every
//     instant of the proc's timeline to exactly one span, so exclusive times
//     sum to the total build virtual time — no instant is counted twice or
//     dropped, which TestAttributionSumsToTotal asserts as a property.
//
//   - An EXPLAIN ANALYZE-style report (report.go): a deterministic text
//     tree mirroring the build — levels, batches, scans, stages,
//     fallback arms — with inclusive/exclusive costs and percent of total.
//     Byte-identical across GOMAXPROCS and reruns,
//     same as the traces it reads.
package profile

import (
	"sort"
	"strconv"

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

	TotalNS        int64 // end of the last non-overlay span
	AttributedNS   int64 // sum of exclusive times over the span forest
	UnattributedNS int64 // timeline instants covered by no span
	Spans          int   // non-overlay spans
	OverlaySpans   int

	// Counters holds the proc's total counter values (the sum of the root
	// spans' inclusive deltas), keyed by counter name, non-zero entries only.
	Counters map[string]int64

	Roots    []*Node
	Overlays []*Node // client-side level view etc.
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
	Track    string // non-main tracks (overlays)
	StartNS  int64
	InclNS   int64
	ExclNS   int64
	PctBP    int64 // exclusive time in basis points of the proc total
	Rows     int64
	Part     string
	Attrs    []obs.Attr
	Children []*Node

	span    *obs.Span
	up      *Node // parent in the attribution forest; nil for roots
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

// LevelRollup aggregates the batches serving one tree level (from the batch
// spans' "level" attribute).
type LevelRollup struct {
	Level   int64
	Batches int
	InclNS  int64 // summed inclusive batch time
	StartNS int64
	EndNS   int64

	vec sim.CounterVec // inclusive deltas
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

	// Split overlay spans (client-side level view: intentionally overlapping
	// windows) from the attribution forest and wrap everything in Nodes.
	byID := make(map[int64]*Node, len(pv.Spans))
	var normal, overlays []*Node
	for _, s := range pv.Spans {
		n := newNode(s, pv.Tracks)
		if s.Overlay {
			overlays = append(overlays, n)
		} else {
			normal = append(normal, n)
			byID[n.ID] = n
		}
	}
	proc.Spans = len(normal)
	proc.OverlaySpans = len(overlays)
	sortNodes(overlays)
	proc.Overlays = overlays

	// Link the forest. A parent id that resolves to no non-overlay node (or
	// 0) makes the span a root.
	var roots []*Node
	for _, n := range normal {
		if parent := byID[n.span.Parent]; parent != nil {
			parent.Children = append(parent.Children, n)
			n.up = parent
		} else {
			roots = append(roots, n)
		}
	}
	for _, n := range normal {
		sortNodes(n.Children)
		if end := n.EndNS(); end > proc.TotalNS {
			proc.TotalNS = end
		}
	}
	sortNodes(roots)
	proc.Roots = roots

	// Exclusive-time attribution: sweep the whole timeline once, assigning
	// every instant to exactly one span (or to UnattributedNS).
	if proc.TotalNS > 0 {
		virtualRoot := &Node{InclNS: proc.TotalNS, Children: roots}
		attributeTime(virtualRoot, []segment{{0, proc.TotalNS}})
		proc.UnattributedNS = virtualRoot.ExclNS
	}

	// Exclusive counters: own inclusive deltas minus the children's.
	for _, n := range normal {
		n.exclVec = n.inclVec
		for _, c := range n.Children {
			n.exclVec.Sub(&c.inclVec)
		}
	}
	counters := sim.CounterVec{}
	for _, r := range roots {
		counters.Add(&r.inclVec)
	}
	proc.Counters = counterMap(&counters)

	// Fill derived per-node fields and rollups now that attribution is done.
	for _, n := range normal {
		proc.AttributedNS += n.ExclNS
		n.PctBP = pctBP(n.ExclNS, proc.TotalNS)
	}
	proc.ByCat = rollupBy(normal, proc.TotalNS, func(n *Node) string { return n.Cat })
	proc.BySource = rollupBy(normal, proc.TotalNS, func(n *Node) string { return n.Source })
	proc.ByLevel = rollupLevels(normal)
	proc.Hot = hotSpans(normal, proc.TotalNS)
	return proc
}

func newNode(s *obs.Span, tracks []string) *Node {
	n := &Node{
		ID: s.ID, Cat: s.Cat, Name: s.Name, Source: s.Source,
		StartNS: s.Start, InclNS: s.Dur, Rows: s.Rows,
		Attrs: s.Attrs, span: s,
	}
	if s.Track > 0 && s.Track < len(tracks) {
		n.Track = tracks[s.Track]
	}
	if s.NParts > 0 {
		n.Part = strconv.Itoa(s.Part) + "/" + strconv.Itoa(s.NParts)
	}
	if s.Deltas != nil {
		n.inclVec = *s.Deltas
	}
	return n
}

// sortNodes orders siblings by start time, then id — the deterministic
// rendering and attribution order.
func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].StartNS != ns[j].StartNS {
			return ns[i].StartNS < ns[j].StartNS
		}
		return ns[i].ID < ns[j].ID
	})
}

// segment is one half-open [lo, hi) slice of the timeline.
type segment struct{ lo, hi int64 }

// attributeTime assigns every instant of n's owned segments either to the
// covering child that owns it or to n's own exclusive time, then recurses.
// Among children covering the same instant, the owner is the one with the
// latest start, then the latest end, then the smallest id. The sweep
// partitions time exactly: summed exclusive times equal the total timeline.
func attributeTime(n *Node, owned []segment) {
	kids := n.Children
	if len(kids) == 0 {
		for _, s := range owned {
			n.ExclNS += s.hi - s.lo
		}
		return
	}
	cuts := make([]int64, 0, 2*len(kids))
	for _, k := range kids {
		cuts = append(cuts, k.StartNS, k.EndNS())
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	childOwned := make([][]segment, len(kids))
	for _, s := range owned {
		lo := s.lo
		ci := 0
		for lo < s.hi {
			// hi of this elementary interval: the next cut strictly past lo.
			hi := s.hi
			for ; ci < len(cuts); ci++ {
				if cuts[ci] > lo {
					if cuts[ci] < hi {
						hi = cuts[ci]
					}
					break
				}
			}
			owner := -1
			for i, k := range kids {
				if k.StartNS > lo || k.EndNS() < hi {
					continue // does not cover [lo, hi)
				}
				if owner < 0 {
					owner = i
					continue
				}
				o := kids[owner]
				switch {
				case k.StartNS != o.StartNS:
					if k.StartNS > o.StartNS {
						owner = i
					}
				case k.EndNS() != o.EndNS():
					if k.EndNS() > o.EndNS() {
						owner = i
					}
				case k.ID < o.ID:
					owner = i
				}
			}
			if owner < 0 {
				n.ExclNS += hi - lo
			} else if segs := childOwned[owner]; len(segs) > 0 && segs[len(segs)-1].hi == lo {
				childOwned[owner][len(segs)-1].hi = hi
			} else {
				childOwned[owner] = append(childOwned[owner], segment{lo, hi})
			}
			lo = hi
		}
	}
	for i, k := range kids {
		attributeTime(k, childOwned[i])
	}
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

// rollupLevels aggregates batch spans by their "level" attribute.
func rollupLevels(nodes []*Node) []LevelRollup {
	idx := map[int64]int{}
	var out []LevelRollup
	for _, n := range nodes {
		if n.Cat != obs.CatBatch {
			continue
		}
		lvl := obs.AttrInt(n.Attrs, "level", -1)
		if lvl < 0 {
			continue
		}
		i, ok := idx[lvl]
		if !ok {
			i = len(out)
			idx[lvl] = i
			out = append(out, LevelRollup{Level: lvl, StartNS: n.StartNS, EndNS: n.EndNS()})
		}
		out[i].Batches++
		out[i].InclNS += n.InclNS
		out[i].vec.Add(&n.inclVec)
		if n.StartNS < out[i].StartNS {
			out[i].StartNS = n.StartNS
		}
		if e := n.EndNS(); e > out[i].EndNS {
			out[i].EndNS = e
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
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
