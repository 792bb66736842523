package engine

import (
	"context"
	"slices"

	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the server side of the columnar scan path: every table is
// stored column-major and dictionary-encoded (storage.ColStore), and the
// middleware scans it in 1024-row blocks through ScanGroups. Three things
// distinguish this from reading the same rows as heap records (Server.OpenScan):
//
//   - Zone-map skipping: each row group's sorted dictionaries decide, per
//     group, whether the pushed-down filter can match at all. A skipped
//     group charges nothing — not even page I/O — which is where the
//     clustered-workload win comes from.
//   - Code-space predicates: the batch's trie of node paths is compiled once
//     per group into dictionary codes, so the inner row loop compares uint16s
//     along shared path prefixes instead of re-evaluating every node's
//     predicate.Cond on materialized values — and one walk of it per row, over
//     a dense range or a pre-selected row set's seeds, both filters the row and
//     drops it into its nodes' buckets (groupTrie.route). A row of the table
//     or of a middleware stage carries the tag of the node a previous scan
//     left it in, and its walk starts at that tag's class instead of the root
//     (tags.go).
//   - Block-granular metering: the per-row costs (ColRowEval,
//     ColRowTransmit) are cheaper than their row-path counterparts because
//     cursor bookkeeping and the wire protocol amortize over whole blocks,
//     and page I/O is charged per encoded column actually needed.

// BlockRows is the number of rows the columnar scan hands to the middleware
// per callback: the vectorization unit of the filter-then-count kernel.
const BlockRows = 1024

// trieNode is one predicate.TrieNode compiled into a row group's code space.
type trieNode struct {
	codes  []uint16 // the tested column's code vector; nil until bound when compiled against a zone
	col    int32    // the tested column; -1: the condition holds for every row of the group
	code   uint16
	ne     bool
	parent int32
	end    int32 // where a walk resumes when the test fails: one past the subtree
	lo, hi int32 // groupTrie.terms[lo:hi]: the conjunctions that end here
}

// groupTrie is a predicate.Trie — a batch's live node paths, or a filter's
// disjuncts — compiled against one row group's dictionaries. Per condition the
// dictionary decides: it holds for every row of the group (an Eq on the
// group's only value, an Ne on an absent one) and stays as a test-free node;
// it holds for none (an Eq on an absent value, an Ne on the only one) and its
// whole subtree is dropped — the zone-map verdict; or it compares one uint16
// code. A groupTrie is reused: Compile overwrites it in place, so a scan
// allocates trie storage once, not once per row group.
type groupTrie struct {
	g     *storage.ColGroup
	nodes []trieNode
	terms []int32 // the source trie's terminal lists, shared
	at    []int32 // per source trie node after the root (which compiles to 0): its compiled index, -1 when dropped
	open  []int32 // Compile: (node, source End) of each node whose subtree is being emitted
}

// Compile compiles t against g's dictionaries, replacing gt's contents.
func (gt *groupTrie) Compile(g *storage.ColGroup, t *predicate.Trie) {
	src := t.Nodes()
	gt.g, gt.terms = g, t.Terms()
	gt.nodes, gt.open = slices.Grow(gt.nodes[:0], len(src)), gt.open[:0]
	gt.at = slices.Grow(gt.at[:0], len(src)-1)[:len(src)-1]
	for i := int32(0); int(i) < len(src); {
		gt.closeUpTo(i)
		n := &src[i]
		cn := trieNode{col: -1, lo: n.Lo, hi: n.Hi}
		if i > 0 {
			c := n.Cond
			code, ok := g.FindCode(c.Attr, c.Val)
			ne, only := c.Op == predicate.Ne, len(g.Dict(c.Attr)) == 1
			switch {
			case !ok && !ne, ok && only && ne:
				// Eq on an absent value, Ne on the only one: no row of the
				// group gets past this node.
				for ; i < n.End; i++ {
					gt.at[i-1] = -1
				}
				continue
			case ok && !only:
				cn.codes, cn.col, cn.code, cn.ne = g.Codes(c.Attr), int32(c.Attr), code, ne
			}
			cn.parent = gt.open[len(gt.open)-2]
			gt.at[i-1] = int32(len(gt.nodes))
		}
		gt.open = append(gt.open, int32(len(gt.nodes)), n.End)
		gt.nodes = append(gt.nodes, cn)
		i++
	}
	gt.closeUpTo(int32(len(src)))
}

// closeUpTo ends the subtree of every open node whose source subtree ends at
// or before source index i.
func (gt *groupTrie) closeUpTo(i int32) {
	for n := len(gt.open); n > 0 && gt.open[n-1] <= i; n -= 2 {
		gt.nodes[gt.open[n-2]].end = int32(len(gt.nodes))
		gt.open = gt.open[:n-2]
	}
}

// bind points the compiled tests at g's code vectors: the trie was compiled
// against g's zone (GroupSource.Zone), before the group itself was read.
func (gt *groupTrie) bind(g *storage.ColGroup) {
	for i := range gt.nodes {
		if n := &gt.nodes[i]; n.col >= 0 {
			n.codes = g.Codes(int(n.col))
		}
	}
}

// release drops what gt holds of the group and trie it last compiled — the
// group, its code vectors, the trie's terminal lists — keeping its storage.
func (gt *groupTrie) release() {
	clear(gt.nodes[:cap(gt.nodes)])
	gt.g, gt.terms, gt.nodes = nil, nil, gt.nodes[:0]
}

// holds reports whether group-relative row i passes node n's condition: once
// the tests are bound, a node without codes holds throughout the group.
func (n *trieNode) holds(i int32) bool {
	return n.codes == nil || (n.codes[i] == n.code) != n.ne
}

// route is the kernel's one walk per row: each row of [base, base+n) — or of
// seed, when it is non-nil: a pre-selected row set's rows of the block — goes
// down the trie once and is appended to buckets[k] for every conjunction k it
// satisfies — buckets[k] receives, in row order, exactly the rows a test of
// conjunction k alone would keep — and, when it satisfies one, to sel, which is
// returned: the rows the trie's disjunction selects. With full set the trie is
// known to select every row (it covers the group): sel gets the whole block
// and the walk only buckets. A tagged walk (tw non-nil, bound
// to the group) starts each row at its tag's class instead of the root and
// writes back the tag of the last conjunction the row reached through a test;
// a row that reached none through a test keeps its tag, which already implies
// every conjunction it reached. An untagged walk starts every row at the root
// (routeRoot). Unmetered: the scan charges its own per-row kernel costs.
func (gt *groupTrie) route(base, n int, seed []int32, full bool, tw *tagWalk, buckets [][]int32, sel []int32) []int32 {
	nodes, terms := gt.nodes, gt.terms
	root := terms[nodes[0].lo:nodes[0].hi]
	if seed != nil {
		n = len(seed)
	}
	if full = full || len(root) > 0; full {
		if seed != nil {
			sel = append(sel, seed...)
		} else {
			sel = appendRows(sel, base, n)
		}
	}
	for _, k := range root {
		buckets[k] = append(buckets[k], sel[len(sel)-n:]...)
	}
	if len(nodes) == 1 {
		return sel
	}
	if tw == nil {
		// Only an untagged source gets here — a copy-table, or a scan with
		// tags off: the table's rows and every stage's carry tags.
		return gt.routeRoot(base, n, seed, full, buckets, sel)
	}
	rows, implied, ranges := tw.rows, tw.implied, tw.ranges
	var pairs int64
	for x := 0; x < n; x++ {
		i := int32(base + x)
		if seed != nil {
			i = seed[x]
		}
		gc := &tw.classes[rows[i]]
		switch gc.kind {
		case classNone:
			continue
		case classPair:
			nd := &nodes[gc.node]
			s := b2i(nd.codes[i] != nd.code)
			k := gc.k[s]
			buckets[k] = append(buckets[k], i)
			rows[i] = gc.tag[s]
			if !full {
				sel = append(sel, i)
			}
			pairs++
			continue
		}
		hit, last := false, int32(-1)
		for _, k := range implied[gc.k[0]:gc.k[1]] {
			buckets[k] = append(buckets[k], i)
			hit = true
		}
		for r := gc.lo; r < gc.hi; r += 2 {
			for j, end := ranges[r], ranges[r+1]; j < end; {
				nd := &nodes[j]
				if !nd.holds(i) {
					j = nd.end
					continue
				}
				if nd.hi > nd.lo {
					for _, k := range terms[nd.lo:nd.hi] {
						buckets[k] = append(buckets[k], i)
					}
					last = terms[nd.hi-1]
				}
				j++
			}
		}
		if last >= 0 {
			hit = true
			rows[i] = tw.conjTag[last]
		}
		if hit && !full {
			sel = append(sel, i)
		}
	}
	tw.pairs += pairs
	return sel
}

// routeRoot is route's untagged walk: every row starts at the root, whose
// class leaves the whole trie open. It is the tagged walk's loop with the
// class lookup taken out, kept apart because that lookup, run for rows that
// all share the root's class, slowed the untagged walk by a third.
func (gt *groupTrie) routeRoot(base, n int, seed []int32, full bool, buckets [][]int32, sel []int32) []int32 {
	nodes, terms := gt.nodes, gt.terms
	for x := 0; x < n; x++ {
		i := int32(base + x)
		if seed != nil {
			i = seed[x]
		}
		hit := full
		for j := 1; j < len(nodes); {
			nd := &nodes[j]
			if !nd.holds(i) {
				j = int(nd.end)
				continue
			}
			if nd.hi > nd.lo {
				for _, k := range terms[nd.lo:nd.hi] {
					buckets[k] = append(buckets[k], i)
				}
				if !hit {
					sel, hit = append(sel, i), true
				}
			}
			j++
		}
	}
	return sel
}

// appendRows appends the group-relative row indices base, base+1, …, base+n-1.
func appendRows(out []int32, base, n int) []int32 {
	out = slices.Grow(out, n)
	for i := int32(base); i < int32(base+n); i++ {
		out = append(out, i)
	}
	return out
}

// matches reports whether row i satisfies at least one conjunction: route's
// walk, stopped at the first terminal.
func (gt *groupTrie) matches(i int32) bool {
	nodes := gt.nodes
	for j := 1; j < len(nodes); {
		n := &nodes[j]
		if !n.holds(i) {
			j = int(n.end)
			continue
		}
		if n.hi > n.lo {
			return true
		}
		j++
	}
	return false
}

// descend is predicate.Trie.Descend in code space: the last terminal on row
// i's descent into the first child that holds, -1 when it passes none. The
// root holds for every row, so the descent starts below it.
func (gt *groupTrie) descend(i int32) int32 {
	nodes, last := gt.nodes, int32(0)
	for j, end := int32(1), int32(len(nodes)); j < end; {
		n := &nodes[j]
		if !n.holds(i) {
			j = n.end
			continue
		}
		if n.hi > n.lo {
			last = j
		}
		j, end = j+1, n.end
	}
	if n := &nodes[last]; n.hi > n.lo {
		return gt.terms[n.hi-1]
	}
	return -1
}

// chain reports whether the compiled trie is one conjunction: every node's
// subtree runs to the end of the trie (no node has two children) and the last
// node is the only terminal.
func (gt *groupTrie) chain() bool {
	last := len(gt.nodes) - 1
	for j := range gt.nodes {
		n := &gt.nodes[j]
		if int(n.end) != len(gt.nodes) || (n.hi > n.lo) != (j == last) {
			return false
		}
	}
	return true
}

// chainSel is a chain trie's filter as selection-vector passes over rows
// [base, base+n), appending the rows that pass to out. The first tested node
// makes one dense, branch-free pass, writing every row to out and advancing
// past it only when it passes; each later tested node filters out the same
// way in place; test-free nodes are skipped. A chain trie has a tested node:
// without one, cover would have found the filter true throughout the group.
func (gt *groupTrie) chainSel(base, n int, out []int32) []int32 {
	k := len(out)
	out = slices.Grow(out, n)[:k+n]
	sel, w := out[k:], -1
	for j := 1; j < len(gt.nodes); j++ {
		nd := &gt.nodes[j]
		switch {
		case nd.codes == nil:
		case w >= 0:
			w = nd.pass(sel[:w], sel)
		default:
			codes, code, ne := nd.codes[base:base+n], nd.code, nd.ne
			w = 0
			for i, c := range codes {
				sel[w] = int32(base + i)
				w += int(b2i((c == code) != ne))
			}
		}
	}
	return out[:k+w]
}

// pass writes the rows of in that pass node n to out, in order, and returns
// how many it wrote; out may be in itself, filtered in place.
func (n *trieNode) pass(in, out []int32) int {
	codes, code, ne := n.codes, n.code, n.ne
	w := 0
	for _, i := range in {
		out[w] = i
		w += int(b2i((codes[i] == code) != ne))
	}
	return w
}

// cover classifies the compiled trie as a filter over the whole group: none
// when no conjunction survived compilation, all when one survived with every
// condition on its path true throughout the group.
func (gt *groupTrie) cover() (all, none bool) {
	none = true
	for j := range gt.nodes {
		if gt.nodes[j].hi > gt.nodes[j].lo {
			none = false
			break
		}
	}
	for j := 0; !none && j < len(gt.nodes); {
		n := &gt.nodes[j]
		switch {
		case n.col >= 0:
			j = int(n.end) // below a real test nothing covers the group
		case n.hi > n.lo:
			return true, false
		default:
			j++
		}
	}
	return false, none
}

// groupFilter is the filter of a consumer without paths — a statement's
// pushed-down WHERE, an aux structure's qualifying filter — compiled against
// one row group: its disjuncts' trie, walked per row until the first disjunct
// that holds or, when what compiled is one conjunction, filtered condition by
// condition in selection-vector passes (chainSel). A filter none of whose
// disjuncts can match in the group is the zone-map skip signal. Like groupTrie
// it is compiled in place and reused across groups.
type groupFilter struct {
	all, none bool
	chain     bool // the compiled trie is one conjunction
	trie      groupTrie
}

// Compile compiles f against g's dictionaries, replacing gf's contents.
func (gf *groupFilter) Compile(g *storage.ColGroup, f predicate.Filter) {
	gf.all, gf.none, gf.chain = f.All(), f.Empty(), false
	if gf.all || gf.none {
		return
	}
	gf.trie.Compile(g, f.Trie())
	gf.all, gf.none = gf.trie.cover()
	gf.chain = !gf.all && !gf.none && gf.trie.chain()
}

// Release drops what gf holds of the group and filter it last compiled,
// keeping its storage for the next Compile.
func (gf *groupFilter) Release() {
	gf.trie.release()
	*gf = groupFilter{trie: gf.trie}
}

// None reports that no row of the group can satisfy the filter: the group
// is skipped before any page I/O is charged.
func (gf *groupFilter) None() bool { return gf.none }

// selectBlock appends the group-relative indices of the matching rows in
// [base, base+n) to out.
func (gf *groupFilter) selectBlock(base, n int, out []int32) []int32 {
	switch {
	case gf.none:
		return out
	case gf.all:
		return appendRows(out, base, n)
	case gf.chain:
		return gf.trie.chainSel(base, n, out)
	}
	for i := int32(base); i < int32(base+n); i++ {
		if gf.trie.matches(i) {
			out = append(out, i)
		}
	}
	return out
}

// ColBlock is one block of a columnar scan: rows [Base, Base+N) of Group,
// with Sel holding the group-relative indices of the rows the consumer
// selects — for a consumer that attached its node paths (ScanConsumer.Paths),
// the rows their disjunction selects, whatever its Filter, and Buckets[k]
// those satisfying path k, in row order; otherwise the rows matching its
// Filter, and Buckets nil. Tags, for a consumer whose walk is tagged, is the group's
// rows' tags, group-relative, as the walk of this block left them; nil when
// the group was walked untagged. The same ColBlock is reused across
// callbacks; callers must not retain it, Sel, Buckets or Tags.
type ColBlock struct {
	Group      *storage.ColGroup
	GroupIndex int
	Base       int
	N          int
	Sel        []int32
	Buckets    [][]int32
	Tags       []uint32
}

// NumColGroups returns the number of columnar row groups — the unit a
// columnar scan's range and its segments are counted in.
func (s *Server) NumColGroups() int { return s.table.colstore.NumGroups() }

// ColGroups returns the table's columnar copy as a GroupSource whose scans
// read the pages of needCols (nil means all columns).
func (s *Server) ColGroups(needCols []int) GroupSource {
	return s.table.groups(needCols, s.meter.Costs())
}

// ScanColumnarRange scans columnar row groups [loGroup, hiGroup) with f
// pushed down, invoking fn per BlockRows-row block until fn returns false:
// ScanGroups over the table's copy for one consumer, reading the pages of
// needCols (nil means all) and charging everything to m (the server's own
// meter when nil). It is the benchmark's frozen shape of that call (ROADMAP
// item 1); everything else builds its ScanConsumer and calls ScanGroups.
func (s *Server) ScanColumnarRange(f predicate.Filter, needCols []int, loGroup, hiGroup int, m *sim.Meter, fn func(blk *ColBlock) bool) {
	if m == nil {
		m = s.meter
	}
	c := &ScanConsumer{Filter: f, Meter: m, Fn: fn}
	ScanGroups(context.Background(), s.ColGroups(needCols), []*ScanConsumer{c}, loGroup, hiGroup, m) // resident groups: nothing fails
}
