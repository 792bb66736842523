package engine

import (
	"slices"

	"repro/internal/predicate"
)

// This file lets a row's walk down a batch's trie start where the previous
// level's walk left it. A middleware gives every row of the table it scans,
// and every row of a stage it keeps, a tag: the path of a node a tagged scan
// bucketed the row into — the last one it reached through a test — a fact
// about the row that stays true however the build goes on; a staging tee
// copies each row's tag forward with the row. A source indexes its tags by
// the row's position in it (GroupSource.FirstRow). Before a tagged
// scan it evaluates the batch's trie under every tag's path (TagClasses.Reset):
// a condition the path implies needs no test, one the path contradicts rules
// out its whole subtree, and only the rest — the class's open subtrees — is
// left to test. A row then starts at its class, not at the root; a class whose
// open subtrees are a binary split's two children (A = v and A <> v, one
// conjunction each) buckets its rows by one branch-free select. Untagged
// sources — copy-tables, a scan with tags off — are walked from the root, and
// so are rows tagged with the root: the root's class leaves every condition
// open. None of this is metered: a scan charges per row evaluated and per row
// selected, and a tag changes neither.

// TagClasses is the classes of one batch's trie, per tag: the conjunctions a
// tag's path implies and the roots of the subtrees it leaves open. Storage is
// reused from Reset to Reset.
type TagClasses struct {
	spans   []classSpan // per tag
	implied []int32     // the implied conjunctions of every class, back to back
	open    []int32     // the open subtree roots of every class, source trie indices
	conjTag []uint32    // per conjunction: the tag a row that reaches it takes
}

// classSpan locates one tag's class: TagClasses.implied[termLo:termHi] and
// TagClasses.open[openLo:openHi].
type classSpan struct{ termLo, termHi, openLo, openHi int32 }

// Reset evaluates t under each tag's path — tag i's is paths[i], and paths[0]
// is the root's, the empty path — replacing tc's classes; conjTags gives the
// tag of each of t's conjunctions and is kept, paths is not. A condition no
// condition of the path decides stays open, and so does its subtree: the walk
// tests it and everything below it. The root's own conjunctions are no class's:
// the walk buckets every row into them.
func (tc *TagClasses) Reset(t *predicate.Trie, paths []predicate.Conj, conjTags []uint32) {
	src, terms := t.Nodes(), t.Terms()
	tc.spans, tc.implied, tc.open, tc.conjTag = tc.spans[:0], tc.implied[:0], tc.open[:0], conjTags
	for _, p := range paths {
		sp := classSpan{termLo: int32(len(tc.implied)), openLo: int32(len(tc.open))}
		for j := int32(1); int(j) < len(src); {
			n := &src[j]
			switch decide(p, n.Cond) {
			case -1:
				j = n.End
			case 1:
				tc.implied = append(tc.implied, terms[n.Lo:n.Hi]...)
				j++
			default:
				tc.open = append(tc.open, j)
				j = n.End
			}
		}
		sp.termHi, sp.openHi = int32(len(tc.implied)), int32(len(tc.open))
		tc.spans = append(tc.spans, sp)
	}
}

// Release empties tc and drops the conjunction tags Reset was given, keeping
// its storage.
func (tc *TagClasses) Release() {
	tc.spans, tc.implied, tc.open, tc.conjTag = tc.spans[:0], tc.implied[:0], tc.open[:0], nil
}

// Len returns the number of tags the classes were computed for.
func (tc *TagClasses) Len() int { return len(tc.spans) }

// decide evaluates c under path p: -1 when p contradicts it, 1 when p implies
// it (p rules out its negation), 0 when p leaves it open.
func decide(p predicate.Conj, c predicate.Cond) int {
	not := predicate.Cond{Attr: c.Attr, Op: predicate.Eq + predicate.Ne - c.Op, Val: c.Val}
	for _, pc := range p {
		switch {
		case pc.Excludes(c):
			return -1
		case pc.Excludes(not):
			return 1
		}
	}
	return 0
}

// The kinds of a class compiled against a row group.
const (
	classWalk uint8 = iota // bucket into the implied conjunctions, walk the open ranges
	classNone              // nothing implied, nothing open: the row reaches no conjunction
	classPair              // one split's two children: a select on one code
)

// groupClass is one tag's class compiled against a row group's trie.
type groupClass struct {
	kind uint8
	node int32    // classPair: the compiled index of the Eq child
	k    [2]int32 // classPair: the conjunction of the Eq child, of the Ne child; classWalk: the span of TagClasses.implied
	tag  [2]uint32
	lo   int32 // classWalk: tagWalk.ranges[lo:hi], (first, end) pairs of compiled node ranges to walk
	hi   int32
}

// tagWalk is a tagged scan's state for the row group a consumer is on: the
// group's tags, group-relative, and every class compiled against its trie.
type tagWalk struct {
	rows    []uint32 // nil: the group is walked untagged
	classes []groupClass
	ranges  []int32
	implied []int32  // TagClasses.implied
	conjTag []uint32 // TagClasses.conjTag
	pairs   int64    // rows bucketed by a pair select since the scan began
}

// bind readies tw for the group gt is compiled against, whose first row is
// tags[first] (GroupSource.FirstRow); a group past the tags' end is walked
// untagged.
func (tw *tagWalk) bind(tags []uint32, tc *TagClasses, first int, gt *groupTrie) {
	off, n := first, gt.g.NumRows()
	if off+n > len(tags) {
		tw.rows = nil
		return
	}
	tw.rows, tw.implied, tw.conjTag = tags[off:off+n], tc.implied, tc.conjTag
	tw.classes = slices.Grow(tw.classes[:0], len(tc.spans))[:len(tc.spans)]
	tw.ranges = tw.ranges[:0]
	for t, sp := range tc.spans {
		gc := groupClass{k: [2]int32{sp.termLo, sp.termHi}, lo: int32(len(tw.ranges))}
		var roots [2]int32
		nroots := 0
		for _, s := range tc.open[sp.openLo:sp.openHi] {
			j := gt.at[s-1]
			if j < 0 {
				continue // dropped by the group's zone map
			}
			if nroots < len(roots) {
				roots[nroots] = j
			}
			nroots++
			end := gt.nodes[j].end
			if last := len(tw.ranges) - 1; last > int(gc.lo) && tw.ranges[last] == j {
				tw.ranges[last] = end // adjacent subtrees walk as one range
			} else {
				tw.ranges = append(tw.ranges, j, end)
			}
		}
		gc.hi = int32(len(tw.ranges))
		switch {
		case sp.termHi > sp.termLo:
		case gc.hi == gc.lo:
			gc.kind = classNone
		case nroots == 2 && gt.split(roots[0], roots[1]):
			eq, ne := roots[0], roots[1]
			if gt.nodes[eq].ne {
				eq, ne = ne, eq
			}
			gc.kind, gc.node = classPair, eq
			gc.k = [2]int32{gt.terms[gt.nodes[eq].lo], gt.terms[gt.nodes[ne].lo]}
			gc.tag = [2]uint32{tc.conjTag[gc.k[0]], tc.conjTag[gc.k[1]]}
		}
		tw.classes[t] = gc
	}
}

// release drops what tw holds of the scan it served, keeping its storage.
func (tw *tagWalk) release() {
	tw.rows, tw.implied, tw.conjTag = nil, nil, nil
}

// split reports whether compiled nodes a and b are a binary split's two
// children: one tested column's A = v and A <> v, each a leaf ending one
// conjunction, so exactly one of them holds for every row.
func (gt *groupTrie) split(a, b int32) bool {
	na, nb := &gt.nodes[a], &gt.nodes[b]
	leaf := func(j int32, n *trieNode) bool { return n.end == j+1 && n.hi-n.lo == 1 }
	return na.col >= 0 && na.col == nb.col && na.code == nb.code && na.ne != nb.ne && leaf(a, na) && leaf(b, nb)
}
