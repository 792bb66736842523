package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// secs renders virtual nanoseconds as seconds with microsecond precision,
// via integer math only (byte-deterministic, no float formatting).
func secs(ns int64) string {
	sign := ""
	if ns < 0 {
		sign, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%06ds", sign, ns/1_000_000_000, (ns%1_000_000_000)/1_000)
}

// pct renders basis points as a percentage with two decimals.
func pct(bp int64) string {
	sign := ""
	if bp < 0 {
		sign, bp = "-", -bp
	}
	return fmt.Sprintf("%s%d.%02d%%", sign, bp/100, bp%100)
}

// ratio renders thousandths as a decimal with three places.
func ratio(pm int64) string { return fmt.Sprintf("%d.%03d", pm/1000, pm%1000) }

// WriteText writes the EXPLAIN ANALYZE-style report: per proc, the span tree
// with inclusive/exclusive costs, the level/batch breakdown, the top cost
// centers and the per-category and per-source rollups. Deterministic:
// byte-identical across reruns and GOMAXPROCS, same as the trace it reads.
func (p *Profile) WriteText(w io.Writer) error {
	tw := &errWriter{w: w}
	if len(p.Procs) == 0 {
		tw.printf("profile: empty trace (no procs)\n")
		return tw.err
	}
	for i, proc := range p.Procs {
		if i > 0 {
			tw.printf("\n")
		}
		writeProcText(tw, proc)
	}
	return tw.err
}

func writeProcText(tw *errWriter, proc *Proc) {
	tw.printf("== proc %d %q ==\n", proc.ID, proc.Label)
	tw.printf("total %s   spans %d", secs(proc.TotalNS), proc.Spans)
	tw.printf("   attributed %s (%s)", secs(proc.AttributedNS), pct(pctBP(proc.AttributedNS, proc.TotalNS)))
	if proc.UnattributedNS != 0 {
		tw.printf("   unattributed %s", secs(proc.UnattributedNS))
	}
	tw.printf("\n")

	if len(proc.Roots) > 0 {
		tw.printf("\nspan tree (incl / excl / excl%% of total):\n")
		for _, r := range proc.Roots {
			writeNodeText(tw, proc, r, 0)
		}
	}
	if len(proc.Hot) > 0 {
		tw.printf("\ncost centers (top exclusive time):\n")
		for i, h := range proc.Hot {
			loc := h.Cat + "/" + h.Name
			if h.Source != "" {
				loc += " [" + h.Source + "]"
			}
			tw.printf("  %2d. %-36s span %-5d excl %s  %s\n",
				i+1, loc, h.ID, secs(h.ExclNS), pct(h.PctBP))
		}
	}
	if len(proc.ByCat) > 0 {
		tw.printf("\nby category (exclusive):\n")
		for _, r := range proc.ByCat {
			tw.printf("  %-10s %4d spans  excl %s  %s%s\n",
				r.Key, r.Spans, secs(r.ExclNS), pct(r.PctBP), topCounters(&r.vec, 3))
		}
	}
	if len(proc.BySource) > 0 {
		tw.printf("\nby source tier (exclusive):\n")
		for _, r := range proc.BySource {
			tw.printf("  %-10s %4d spans  excl %s  %s\n",
				r.Key, r.Spans, secs(r.ExclNS), pct(r.PctBP))
		}
	}
	if len(proc.ByLevel) > 0 {
		tw.printf("\nby tree level (batch spans, inclusive):\n")
		for _, l := range proc.ByLevel {
			tw.printf("  level %-3d %3d batches", l.Level, l.Batches)
			if l.Batches > 0 { // a level whose nodes all rode in shallower batches has no time of its own
				tw.printf("  %s .. %s  incl %s%s", secs(l.StartNS), secs(l.EndNS), secs(l.InclNS), topCounters(&l.vec, 3))
			}
			tw.printf("\n")
			tw.printf("            %3d nodes  actual/estimate median %s max %s  fallbacks: no fit at admission %d, overflow during the scan %d\n",
				l.Nodes, ratio(l.MedianRatioPM), ratio(l.MaxRatioPM), l.FallbackNoFit, l.FallbackOverflow)
		}
	}
	if len(proc.Counters) > 0 {
		tw.printf("\ncounters (build totals):\n")
		keys := make([]string, 0, len(proc.Counters))
		//repolint:ordered collect-then-sort
		for k := range proc.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			tw.printf("  %-22s %d\n", k, proc.Counters[k])
		}
	}
}

func writeNodeText(tw *errWriter, proc *Proc, n *Node, depth int) {
	label := n.Cat + "/" + n.Name
	if n.Source != "" {
		label += " [" + n.Source + "]"
	}
	if n.Rows > 0 {
		label += fmt.Sprintf(" rows=%d", n.Rows)
	}
	if lvl := obs.AttrInt(n.Attrs, "level", -1); n.Cat == obs.CatBatch && lvl >= 0 {
		label += fmt.Sprintf(" level=%d", lvl)
	}
	indent := strings.Repeat("  ", depth)
	pad := 56 - len(indent) - len(label)
	if pad < 1 {
		pad = 1
	}
	tw.printf("%s%s%s incl %s  excl %s  %6s%s\n",
		indent, label, strings.Repeat(" ", pad),
		secs(n.InclNS), secs(n.ExclNS), pct(n.PctBP), topCounters(&n.exclVec, 3))
	if n.Cat == obs.CatBatch && obs.AttrInt(n.Attrs, "mem_used_bytes", -1) >= 0 {
		// What the middleware recorded on the batch span at batch end: memory
		// budget utilization (limit 0 = unlimited), staging file bytes, open
		// nodes resident per tier, and what the batch shed or staged.
		at := func(key string) int64 { return obs.AttrInt(n.Attrs, key, 0) }
		tw.printf("%s    mem %d/%d B  file %d B in %d files  open nodes server/file/memory %d/%d/%d  requeued %d  staged-mem rows %d\n",
			indent, at("mem_used_bytes"), at("mem_budget_bytes"),
			at("file_used_bytes"), at("files_live"),
			at("nodes_server"), at("nodes_file"), at("nodes_memory"),
			at("n_requeued"), at("staged_mem_rows"))
	}
	for _, k := range n.Children {
		writeNodeText(tw, proc, k, depth+1)
	}
}

// topCounters renders the k largest (by absolute value) non-zero counters of
// a vector as "  {name=v name=v}", or "" when the vector is zero. Ordering is
// by descending absolute value, then counter declaration order.
func topCounters(v *sim.CounterVec, k int) string {
	type kv struct {
		c sim.Counter
		n int64
	}
	var all []kv
	v.EachNonZero(func(c sim.Counter, n int64) {
		all = append(all, kv{c, n})
	})
	if len(all) == 0 {
		return ""
	}
	sort.SliceStable(all, func(i, j int) bool { return abs64(all[i].n) > abs64(all[j].n) })
	if len(all) > k {
		all = all[:k]
	}
	var b strings.Builder
	b.WriteString("  {")
	for i, e := range all {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", e.c, e.n)
	}
	b.WriteString("}")
	return b.String()
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// errWriter accumulates the first write error so the renderers stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}
