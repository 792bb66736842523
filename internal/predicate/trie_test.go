package predicate

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
)

// TestTrieShape pins the layout on a hand-made set: shared prefixes merge, a
// path that prefixes another is a terminal with children, duplicates share a
// node, and the empty path ends at the root.
func TestTrieShape(t *testing.T) {
	a, b, c := Cond{Attr: 0, Val: 1}, Cond{Attr: 1, Op: Ne, Val: 2}, Cond{Attr: 2, Val: 0}
	trie := NewTrie([]Conj{{a, b}, {a}, {a, c}, nil, {a, b}, {c}})
	want := []TrieNode{
		{End: 5, Lo: 0, Hi: 1},          // root: path 3
		{Cond: a, End: 4, Lo: 1, Hi: 2}, // a: path 1
		{Cond: b, End: 3, Lo: 2, Hi: 4}, // a,b: paths 0 and 4
		{Cond: c, End: 4, Lo: 4, Hi: 5}, // a,c: path 2
		{Cond: c, End: 5, Lo: 5, Hi: 6}, // c: path 5
	}
	if !reflect.DeepEqual(trie.Nodes(), want) {
		t.Errorf("nodes = %+v\nwant    %+v", trie.Nodes(), want)
	}
	if !reflect.DeepEqual(trie.Terms(), []int32{3, 1, 0, 4, 2, 5}) {
		t.Errorf("terms = %v", trie.Terms())
	}
}

// walk is the forward pass the package comment describes, over the exported
// layout the engine compiles from (Nodes, Terms): the indices of the
// conjunctions r satisfies.
func walk(t *Trie, r data.Row, out []int32) []int32 {
	nodes, terms := t.Nodes(), t.Terms()
	out = append(out, terms[nodes[0].Lo:nodes[0].Hi]...)
	for i := 1; i < len(nodes); {
		n := &nodes[i]
		if !n.Cond.Eval(r) {
			i = int(n.End)
			continue
		}
		out = append(out, terms[n.Lo:n.Hi]...)
		i++
	}
	return out
}

// TestTrieMatchesEveryConj: on random path sets — children of shared
// prefixes, prefixes of other paths, duplicates, the empty path, Ne
// conditions — one walk of the layout finds exactly the conjunctions a row
// satisfies, and Any is their disjunction.
func TestTrieMatchesEveryConj(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cond := func() Cond {
		return Cond{Attr: rng.Intn(4), Op: Op(rng.Intn(2)), Val: data.Value(rng.Intn(3))}
	}
	for round := 0; round < 300; round++ {
		paths := []Conj{{cond()}}
		for n := rng.Intn(14); len(paths) <= n; {
			base := paths[rng.Intn(len(paths))]
			switch rng.Intn(5) {
			case 0:
				paths = append(paths, base)
			case 1:
				paths = append(paths, base[:rng.Intn(len(base)+1)])
			case 2:
				paths = append(paths, Conj{cond()})
			default:
				paths = append(paths, base.And(cond()))
			}
		}
		trie := NewTrie(paths)
		var hits []int32
		for i := 0; i < 60; i++ {
			r := data.Row{data.Value(rng.Intn(3)), data.Value(rng.Intn(3)), data.Value(rng.Intn(3)), data.Value(rng.Intn(3))}
			hits = walk(trie, r, hits[:0])
			got := make([]bool, len(paths))
			for _, k := range hits {
				if got[k] {
					t.Fatalf("round %d: path %d reported twice for %v", round, k, r)
				}
				got[k] = true
			}
			any := false
			for k, cj := range paths {
				if got[k] != cj.Eval(r) {
					t.Fatalf("round %d: row %v, path %v: trie says %v", round, r, cj, got[k])
				}
				any = any || got[k]
			}
			if trie.Any(r) != any {
				t.Fatalf("round %d: Any(%v) = %v, want %v", round, r, !any, any)
			}
		}
	}
	if (*Trie)(nil).Any(data.Row{0}) {
		t.Error("nil trie matched a row")
	}
}

// TestTrieDescend: over random trees of node paths — binary A = v / A <> v
// children, multiway arms on distinct values — Descend returns the node a walk
// of the tree itself decides in: the reached leaf, or the node none of whose
// children's conditions hold.
func TestTrieDescend(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for round := 0; round < 300; round++ {
		paths, kids := []Conj{nil}, [][]int{nil}
		for n := 1 + rng.Intn(20); len(paths) < n; {
			p := rng.Intn(len(paths))
			if len(kids[p]) > 0 {
				continue
			}
			attr := rng.Intn(3)
			var conds []Cond
			if v := data.Value(rng.Intn(3)); rng.Intn(2) == 0 {
				conds = []Cond{{Attr: attr, Val: v}, {Attr: attr, Op: Ne, Val: v}}
			} else {
				for _, v := range rng.Perm(3)[:1+rng.Intn(3)] {
					conds = append(conds, Cond{Attr: attr, Val: data.Value(v)})
				}
			}
			for _, c := range conds {
				kids[p] = append(kids[p], len(paths))
				paths, kids = append(paths, paths[p].And(c)), append(kids, nil)
			}
		}
		trie := NewTrie(paths)
		for i := 0; i < 40; i++ {
			r := data.Row{data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(4))}
			want := 0
		walk:
			for {
				for _, k := range kids[want] {
					if paths[k][len(paths[k])-1].Eval(r) {
						want = k
						continue walk
					}
				}
				break
			}
			if got := trie.Descend(r); got != int32(want) {
				t.Fatalf("round %d: Descend(%v) = %d, want node %d of %v", round, r, got, want, paths)
			}
		}
	}
}
