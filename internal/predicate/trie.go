package predicate

import "repro/internal/data"

// Trie is a prefix tree over a set of conjunctions: the path predicates of a
// batch's live nodes, or a filter's disjuncts. A node's population is a
// refinement of its parent's (the paper's §4.3.1; Bentayeb–Darmont make the
// same point relationally), so the paths of one batch share prefixes, and a
// row finds every conjunction it satisfies by descending the shared prefixes
// once instead of being tested against each conjunction in turn.
//
// The conjunctions are arbitrary: several children of a node may hold for the
// same row, a conjunction may be a prefix of another (a terminal with
// children), and duplicates are allowed (a node with several terminals).
// Nothing is assumed about sibling exclusivity, so the worst case — no two
// conjunctions share a first condition — costs what the per-conjunction test
// did.
//
// Nodes are stored in preorder, each knowing where its subtree ends; a walk is
// then one forward pass with no stack: a node whose condition holds is
// followed by its first child (or, for a leaf, by whatever comes next), one
// whose condition fails by the node after its subtree.
type Trie struct {
	conjs []Conj
	nodes []TrieNode
	terms []int32 // the nodes' terminal lists, back to back
}

// TrieNode is one trie node. The root (index 0) stands for the empty prefix
// and has no condition.
type TrieNode struct {
	Cond Cond  // the condition on the edge into the node
	End  int32 // index one past the node's subtree
	// Trie.Terms()[Lo:Hi] lists the conjunctions that end here, ascending.
	Lo, Hi int32
}

// NewTrie builds the trie of conjs; terminals are indices into conjs, which
// the trie keeps and the caller must not modify afterwards. Children keep the
// order in which their conditions first appear.
func NewTrie(conjs []Conj) *Trie {
	t := &Trie{conjs: conjs, nodes: make([]TrieNode, 1, len(conjs)+1), terms: make([]int32, 0, len(conjs))}
	idx := make([]int32, 2*len(conjs))
	for i := range conjs {
		idx[i] = int32(i)
	}
	t.grow(conjs, idx[:len(conjs)], idx[len(conjs):], 0, 0)
	return t
}

// grow fills in node n, whose subtree holds the conjunctions idx — all sharing
// their first depth conditions — and appends its descendants. idx is
// reordered in place; tmp is scratch of the same length.
func (t *Trie) grow(conjs []Conj, idx, tmp []int32, depth int, n int) {
	t.nodes[n].Lo = int32(len(t.terms))
	rest := idx[:0]
	for _, i := range idx {
		if len(conjs[i]) == depth {
			t.terms = append(t.terms, i)
		} else {
			rest = append(rest, i)
		}
	}
	t.nodes[n].Hi = int32(len(t.terms))
	for len(rest) > 0 {
		// Stable partition: the conjunctions continuing with rest[0]'s
		// condition move to the front and become one child's subtree.
		c := conjs[rest[0]][depth]
		same, other := 0, tmp[:0]
		for _, i := range rest {
			if conjs[i][depth] == c {
				rest[same] = i
				same++
			} else {
				other = append(other, i)
			}
		}
		copy(rest[same:], other)
		child := len(t.nodes)
		t.nodes = append(t.nodes, TrieNode{Cond: c})
		t.grow(conjs, rest[:same], tmp, depth+1, child)
		rest = rest[same:]
	}
	t.nodes[n].End = int32(len(t.nodes))
}

// Nodes returns the trie's nodes in preorder (the root first). Callers must
// not modify the slice; it is exposed so the engine can compile the trie
// into a row group's code space.
func (t *Trie) Nodes() []TrieNode { return t.nodes }

// Terms returns the concatenated terminal lists TrieNode.Lo and Hi index.
func (t *Trie) Terms() []int32 { return t.terms }

// Len returns the number of conjunctions the trie was built over.
func (t *Trie) Len() int { return len(t.conjs) }

// Filter returns the disjunction of the trie's conjunctions (§4.3.1's filter
// expression for a batch whose node paths they are), evaluated through this
// trie: no conjunction at all accepts nothing, and an empty one (the root)
// degenerates it to match-all, mirroring the paper's observation that early
// in tree growth a complete scan is needed anyway.
func (t *Trie) Filter() Filter {
	switch {
	case len(t.conjs) == 0:
		return Filter{}
	case t.nodes[0].Hi > t.nodes[0].Lo:
		return MatchAll()
	}
	return Filter{conjs: t.conjs, trie: t}
}

// Any reports whether r satisfies at least one conjunction: one forward pass
// over the preorder nodes, stopped at the first terminal. A nil trie holds no
// conjunction.
func (t *Trie) Any(r data.Row) bool {
	if t == nil {
		return false
	}
	nodes := t.nodes
	if nodes[0].Hi > nodes[0].Lo {
		return true
	}
	for i := 1; i < len(nodes); {
		n := &nodes[i]
		if !n.Cond.Eval(r) {
			i = int(n.End)
			continue
		}
		if n.Hi > n.Lo {
			return true
		}
		i++
	}
	return false
}

// Descend returns the last terminal on r's descent from the root: at each node
// whose condition holds it goes into the first child whose condition holds,
// and it stops where none does. For the paths of a tree's nodes, whose sibling
// conditions exclude each other, that is the deepest node whose path r
// satisfies. It returns -1 when the descent passes no terminal.
func (t *Trie) Descend(r data.Row) int32 {
	nodes, last := t.nodes, int32(0)
	for i, end := int32(1), int32(len(nodes)); i < end; {
		n := &nodes[i]
		if !n.Cond.Eval(r) {
			i = n.End
			continue
		}
		if n.Hi > n.Lo {
			last = i
		}
		i, end = i+1, n.End
	}
	if n := &nodes[last]; n.Hi > n.Lo {
		return t.terms[n.Hi-1]
	}
	return -1
}
