package engine

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestTaggedWalkMatchesRootWalk: a walk that starts each row at its tag's class
// buckets and selects exactly what the walk from the root does, and leaves every
// row a tag its row satisfies; over a source of several groups, each group's
// tags are the ones its rows' positions index. checkTaggedWalk and
// checkTaggedSource draw the cases.
func TestTaggedWalkMatchesRootWalk(t *testing.T) {
	var pairs, sourcePairs int64
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs += checkTaggedWalk(t, rng)
		sourcePairs += checkTaggedSource(t, rng)
	}
	if pairs == 0 || sourcePairs == 0 {
		t.Fatalf("%d rows of one group and %d of a source were bucketed by a pair select", pairs, sourcePairs)
	}
}

// FuzzTaggedWalk is TestTaggedWalkMatchesRootWalk over fuzzed seeds.
func FuzzTaggedWalk(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1999, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkTaggedWalk(t, rng)
		checkTaggedSource(t, rng)
	})
}

// stageSource is a source of a middleware stage's shape: groups of BlockRows
// rows but the last, whose tags are indexed by the row's position in the
// source.
type stageSource struct{ groups []*storage.ColGroup }

func (s *stageSource) NumGroups() int                         { return len(s.groups) }
func (s *stageSource) Zone(gi int) *storage.ColGroup          { return s.groups[gi] }
func (s *stageSource) Read(gi int) (*storage.ColGroup, error) { return s.groups[gi], nil }
func (s *stageSource) Sel(int) ([]int32, bool)                { return nil, false }
func (s *stageSource) ChargeRead(int, *sim.Meter)             {}
func (s *stageSource) AtServer() (RowPrices, bool)            { return RowPrices{}, false }
func (s *stageSource) FirstRow(gi int) int                    { return gi * BlockRows }

// scanned is one block a consumer was handed: its rows' position in the source,
// what it selected and bucketed, and the tags of the rows it selected.
type scanned struct {
	first   int
	sel     []int32
	buckets [][]int32
	tags    []uint32
}

// recordBlocks returns a consumer callback that appends each block, copied, to
// out; a block's position is counted from its group's rows, not asked of the
// source.
func recordBlocks(src *stageSource, out *[]scanned) func(*ColBlock) bool {
	return func(blk *ColBlock) bool {
		first := 0
		for _, g := range src.groups[:blk.GroupIndex] {
			first += g.NumRows()
		}
		b := scanned{first: first, sel: slices.Clone(blk.Sel)}
		for _, bk := range blk.Buckets {
			b.buckets = append(b.buckets, slices.Clone(bk))
		}
		if blk.Tags != nil {
			for _, i := range blk.Sel {
				b.tags = append(b.tags, blk.Tags[i])
			}
		}
		*out = append(*out, b)
		return true
	}
}

// checkTaggedSource draws a source of up to three 1024-row groups — a stage —
// and two batches of paths over it, as checkTaggedWalk does for one group, and
// scans it with a consumer walking from the root and one walking from the
// rows' tags. Both must select and bucket the same rows, block by block. The
// tagged scan must leave each row the tag it leaves when each group is scanned
// alone with its own rows' tags, sliced by position — so a group's tags come
// from where its rows sit in the source — hand each block its rows' tags, and
// leave every row a tag it satisfies. It returns how many rows the tagged scans
// bucketed by a pair select.
func checkTaggedSource(t testing.TB, rng *rand.Rand) (pairs int64) {
	t.Helper()
	const ncols = 3
	nrows := 1 + rng.Intn(3*BlockRows)
	var dom [ncols]int
	for c := range dom {
		dom[c] = 1 + rng.Intn(4)
	}
	b := storage.NewGroupBuilder(ncols, BlockRows, nrows)
	src := &stageSource{}
	rows := make([]data.Row, nrows)
	for i := range rows {
		rows[i] = make(data.Row, ncols)
		for c := range rows[i] {
			rows[i][c] = data.Value(rng.Intn(dom[c]))
		}
		if g := b.AppendRow(rows[i]); g != nil {
			src.groups = append(src.groups, g)
		}
	}
	if g := b.Seal(); g != nil {
		src.groups = append(src.groups, g)
	}
	meter := sim.NewDefaultMeter()
	scan := func(s *stageSource, cons ...*ScanConsumer) {
		if err := ScanRange(context.Background(), s, cons, 0, len(s.groups), meter); err != nil {
			t.Fatal(err)
		}
	}
	registry := []predicate.Conj{nil}
	tags := make([]uint32, nrows)
	for round := 0; round < 2; round++ {
		var paths []predicate.Conj
		var conjTags []uint32
		paths, conjTags, registry = drawBatch(rng, ncols, registry)
		retag(rng, rows, registry, tags)
		trie := predicate.NewTrie(paths)
		f := trie.Filter()
		if rng.Intn(2) == 0 || f.Empty() {
			f = predicate.MatchAll()
		}
		var tc TagClasses
		tc.Reset(trie, registry, conjTags)

		want, first := slices.Clone(tags), 0
		for _, g := range src.groups {
			one := &stageSource{groups: []*storage.ColGroup{g}}
			var blocks []scanned
			scan(one, &ScanConsumer{Filter: f, Paths: trie, Tags: want[first : first+g.NumRows()], Classes: &tc, Meter: meter, Fn: recordBlocks(one, &blocks)})
			first += g.NumRows()
		}
		var root, tagged []scanned
		rc := &ScanConsumer{Filter: f, Paths: trie, Meter: meter, Fn: recordBlocks(src, &root)}
		tcons := &ScanConsumer{Filter: f, Paths: trie, Tags: tags, Classes: &tc, Meter: meter, Fn: recordBlocks(src, &tagged)}
		scan(src, rc, tcons)
		if len(root) != len(tagged) {
			t.Fatalf("paths %v: %d blocks walked from the root, %d by tags", paths, len(root), len(tagged))
		}
		for k, blk := range tagged {
			r := root[k]
			if blk.first != r.first || !slices.Equal(blk.sel, r.sel) {
				t.Fatalf("paths %v, block %d of group at row %d: sel %v, root walk %v", paths, k, blk.first, blk.sel, r.sel)
			}
			for p := range paths {
				if !slices.Equal(blk.buckets[p], r.buckets[p]) {
					t.Fatalf("paths %v, block %d: bucket of %v is %v, root walk %v", paths, k, paths[p], blk.buckets[p], r.buckets[p])
				}
			}
			if len(blk.tags) != len(blk.sel) {
				t.Fatalf("paths %v, block %d: %d tags for %d selected rows", paths, k, len(blk.tags), len(blk.sel))
			}
			for j, i := range blk.sel {
				if at := blk.first + int(i); blk.tags[j] != tags[at] {
					t.Fatalf("paths %v: row %d handed tag %d, the walk left %d", paths, at, blk.tags[j], tags[at])
				}
			}
		}
		for i := range rows {
			if tags[i] != want[i] {
				t.Fatalf("paths %v: row %d %v tagged %d (%v), scanned alone %d (%v)", paths, i, rows[i], tags[i], registry[tags[i]], want[i], registry[want[i]])
			}
			if !registry[tags[i]].Eval(rows[i]) {
				t.Fatalf("paths %v: row %d %v tagged %d (%v), which it fails", paths, i, rows[i], tags[i], registry[tags[i]])
			}
		}
		pairs += tcons.PairRows()
	}
	return pairs
}

// checkTaggedWalk draws one row group and two batches of paths — the second
// walked with the tags the first left — and compares, block by block, the
// tagged walk against the walk from the root. The group is small, over columns
// of one to four values, so conditions compile test-free (a single-value
// dictionary) or drop their subtree (a value the group lacks), and whole paths
// cover the group. A batch is a binary split tree's frontier — the shape that
// takes the pair select — paths whose tails a tag leaves open under several
// branches at once (sharedTails), or randomPaths' overlapping, non-tree Eq/Ne
// conjunctions. Each row's tag is a path it satisfies: the root, a prefix of a
// live path, a path deeper than the live ones, or an unrelated one. Blocks are
// dense ranges or seeded rows, under the paths' filter and under match-all. It
// returns how many rows the tagged walks bucketed by a pair select.
func checkTaggedWalk(t testing.TB, rng *rand.Rand) (pairs int64) {
	t.Helper()
	const ncols = 3
	nrows := 1 + rng.Intn(400)
	var dom [ncols]int
	for c := range dom {
		dom[c] = 1 + rng.Intn(4)
	}
	b := storage.NewGroupBuilder(ncols, storage.RowGroupSize, nrows)
	rows := make([]data.Row, nrows)
	for i := range rows {
		rows[i] = make(data.Row, ncols)
		for c := range rows[i] {
			rows[i][c] = data.Value(rng.Intn(dom[c]))
		}
		b.AppendRow(rows[i])
	}
	g := b.Seal()

	// The registry: the root, then every path a row may carry.
	registry := []predicate.Conj{nil}
	tags := make([]uint32, nrows)
	for round := 0; round < 2; round++ {
		var paths []predicate.Conj
		var conjTags []uint32
		paths, conjTags, registry = drawBatch(rng, ncols, registry)
		retag(rng, rows, registry, tags)

		trie := predicate.NewTrie(paths)
		var tc TagClasses
		tc.Reset(trie, registry, conjTags)
		for _, f := range []predicate.Filter{trie.Filter(), predicate.MatchAll()} {
			if f.Empty() {
				continue
			}
			ref := &ScanConsumer{Filter: f, Paths: trie, buckets: make([][]int32, len(paths))}
			tagged := &ScanConsumer{Filter: f, Paths: trie, Tags: tags, Classes: &tc, buckets: make([][]int32, len(paths))}
			ref.compile(g)
			tagged.compile(g)
			if tagged.gf.None() {
				continue
			}
			tagged.tw.bind(tags, &tc, 0, &tagged.gf.trie)
			for base := 0; base < nrows; {
				n := min(1+rng.Intn(nrows), nrows-base)
				var seed []int32
				if rng.Intn(2) == 0 {
					seed = []int32{}
					for i := base; i < base+n; i++ {
						if rng.Intn(3) > 0 {
							seed = append(seed, int32(i))
						}
					}
				}
				before := slices.Clone(tags)
				ref.walk(base, n, seed)
				tagged.walk(base, n, seed)
				if !slices.Equal(tagged.sel, ref.sel) {
					t.Fatalf("paths %v, filter %v, rows [%d, %d) seed %v: sel %v, root walk %v", paths, f, base, base+n, seed, tagged.sel, ref.sel)
				}
				for k := range paths {
					if !slices.Equal(tagged.buckets[k], ref.buckets[k]) {
						t.Fatalf("paths %v, filter %v, rows [%d, %d) seed %v: bucket of %v is %v, root walk %v", paths, f, base, base+n, seed, paths[k], tagged.buckets[k], ref.buckets[k])
					}
				}
				for i := range rows {
					if !registry[tags[i]].Eval(rows[i]) {
						t.Fatalf("paths %v: row %d %v tagged %d (%v), which it fails; was %d (%v)", paths, i, rows[i], tags[i], registry[tags[i]], before[i], registry[before[i]])
					}
				}
				base += n
			}
			pairs += tagged.tw.pairs
		}
	}
	return pairs
}

// drawBatch draws one batch of paths over ncols columns — a binary split
// tree's frontier, sharedTails or randomPaths — and registers, after registry's
// tags, every path a row may carry: each live path, its prefixes, a path one
// condition deeper, unrelated paths of one or two conditions, and every A = v.
// It returns the paths, each one's tag (0, the root's, for the empty path) and
// the grown registry.
func drawBatch(rng *rand.Rand, ncols int, registry []predicate.Conj) ([]predicate.Conj, []uint32, []predicate.Conj) {
	cond := func() predicate.Cond {
		return predicate.Cond{Attr: rng.Intn(ncols), Op: predicate.Op(rng.Intn(2)), Val: data.Value(rng.Intn(5))}
	}
	var paths []predicate.Conj
	switch rng.Intn(3) {
	case 0:
		paths = splitFrontier(rng, ncols, 1+rng.Intn(4))
	case 1:
		paths = sharedTails(rng, ncols)
	default:
		paths = randomPaths(rng, ncols)
	}
	conjTags := make([]uint32, len(paths))
	for k, p := range paths {
		if len(p) > 0 {
			conjTags[k] = uint32(len(registry))
			registry = append(registry, p)
		}
		for d := 1; d < len(p); d++ {
			registry = append(registry, p[:d])
		}
		registry = append(registry, p.And(cond()))
	}
	for range 3 {
		registry = append(registry, predicate.Conj{cond(), cond()}[:1+rng.Intn(2)])
	}
	for a := range ncols {
		for v := range 5 {
			registry = append(registry, predicate.Conj{{Attr: a, Val: data.Value(v)}})
		}
	}
	return paths, conjTags, registry
}

// retag re-tags about half of rows with a registered path each satisfies; the
// rest keep the tags they have.
func retag(rng *rand.Rand, rows []data.Row, registry []predicate.Conj, tags []uint32) {
	for i, r := range rows {
		if rng.Intn(2) == 0 {
			continue
		}
		var fits []uint32
		for tag, p := range registry {
			if p.Eval(r) {
				fits = append(fits, uint32(tag))
			}
		}
		tags[i] = fits[rng.Intn(len(fits))]
	}
}

// splitFrontier grows a random tree of binary splits — each node's children
// A = v and A <> v, now and then a pair of children that only looks like one —
// to depth at most depth and returns its leaves' paths, as one level of a build
// batches them.
func splitFrontier(rng *rand.Rand, ncols, depth int) []predicate.Conj {
	frontier := []predicate.Conj{nil}
	for d := 0; d < depth; d++ {
		var next []predicate.Conj
		for _, p := range frontier {
			if d > 0 && rng.Intn(4) == 0 {
				continue // a leaf: its rows reach no live path
			}
			c := predicate.Cond{Attr: rng.Intn(ncols), Val: data.Value(rng.Intn(5))}
			eq, ne := c, c
			ne.Op = predicate.Ne
			switch rng.Intn(8) {
			case 0: // two children that look like a split and are not one
				ne.Val++
			case 1:
				ne.Op, ne.Val = predicate.Eq, ne.Val+1
			case 2:
				ne.Attr = (ne.Attr + 1) % ncols
			}
			next = append(next, p.And(eq), p.And(ne))
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return frontier
}

// sharedTails returns paths B <> w1 AND tail, B <> w2 AND tail, … over distinct
// w, the tail one condition or a split's two children: under a tag B = x, every
// branch is implied and the same tails are open under each of them.
func sharedTails(rng *rand.Rand, ncols int) []predicate.Conj {
	b := rng.Intn(ncols)
	tail := predicate.Cond{Attr: rng.Intn(ncols), Op: predicate.Op(rng.Intn(2)), Val: data.Value(rng.Intn(5))}
	var paths []predicate.Conj
	for w := range 2 + rng.Intn(2) {
		p := predicate.Conj{{Attr: b, Op: predicate.Ne, Val: data.Value(w)}}
		paths = append(paths, p.And(tail))
		if rng.Intn(2) == 0 {
			other := tail
			other.Op = predicate.Eq + predicate.Ne - tail.Op
			paths = append(paths, p.And(other))
		}
	}
	return paths
}
