package dtree

import (
	"context"
	"sort"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/mw"
	"repro/internal/predicate"
)

// Build grows a decision tree through the middleware using the Figure 3
// protocol: enqueue a request per active node, consume whichever counts
// tables the middleware chose to fulfil, grow the tree one level at those
// nodes, repeat until no active nodes remain. Children that already satisfy
// a termination criterion (their class histogram is known exactly from the
// parent's CC table) become leaves immediately and are never requested.
// Build is the single-session loop over Builder; the multi-tenant fleet
// drives the same Builder with an external scheduler.
func Build(m *mw.Middleware, opt Options) (*Tree, error) {
	return BuildContext(context.Background(), m, opt)
}

// BuildContext is Build whose batches check ctx once per block
// (Middleware.StepContext): a cancelled build ends its spans and returns
// ctx.Err(), and m is then fit only to be closed.
func BuildContext(ctx context.Context, m *mw.Middleware, opt Options) (*Tree, error) {
	b, err := NewBuilder(m, opt)
	if err != nil {
		return nil, err
	}
	for b.Pending() > 0 {
		results, err := m.StepContext(ctx)
		if err == nil {
			err = b.Feed(results)
		}
		if err != nil {
			b.Abort()
			return nil, err
		}
	}
	return b.Finish()
}

// terminalProbe restricts Options to the criteria decidable without a CC
// table (purity, size, depth, exhausted attributes). decide is called with a
// nil table; guard by treating the gain search as "unknown, not a leaf".
func terminalProbe(opt Options) Options {
	o := opt
	o.probeOnly = true
	return o
}

// grow is the one grow step every driver shares: it decides node n from its
// counts table and, when n splits, attaches its children — IDs drawn from
// *nextID in arm order — and returns those that still need a counts table of
// their own. A child whose class histogram, known exactly from the parent's
// table, already satisfies a termination criterion becomes a leaf here and is
// never counted; so does n itself (nothing returned) when no split is worth it.
func grow(n *Node, table *cc.Table, classIdx, classCard int, opt Options, nextID *int) []*Node {
	n.ClassCounts = classTotals(table, classIdx, classCard)
	n.Class, _ = majority(n.ClassCounts)
	dec := decide(table, n.Attrs, n.ClassCounts, n.Rows, n.Depth, opt)
	if dec.leaf {
		n.Leaf = true
		return nil
	}
	n.SplitAttr = dec.attr
	n.SplitVal = dec.val
	n.Multiway = len(dec.vals) > 0
	n.SplitVals = dec.vals

	var open []*Node
	for _, spec := range expand(table, n, dec, classCard) {
		child := &Node{
			ID:          *nextID,
			Path:        n.Path.And(spec.cond),
			Attrs:       spec.attrs,
			Rows:        spec.rows,
			Depth:       n.Depth + 1,
			ClassCounts: spec.classCounts,
		}
		*nextID++
		child.Class, _ = majority(child.ClassCounts)
		n.Children = append(n.Children, child)
		if decide(nil, child.Attrs, child.ClassCounts, child.Rows, child.Depth, terminalProbe(opt)).leaf {
			child.Leaf = true
			continue
		}
		open = append(open, child)
	}
	return open
}

// BuildInMemory grows a tree with the same split logic directly over an
// in-memory dataset: the traditional client of §3.1 and the reference
// implementation the middleware-built tree must match exactly.
func BuildInMemory(ds *data.Dataset, opt Options) (*Tree, error) {
	return BuildLevelwise(ds, opt, nil)
}

// BuildLevelwise grows the tree level-synchronously: one pass over the data
// per frontier generation, routing each row down the partially built tree to
// its active node and accumulating that node's counts table. This is how a
// traditional client organizes counting once the data has been extracted;
// onRow (may be nil) is invoked once per row per pass so baselines can
// charge per-row access costs. The tree produced is identical to Build's and
// BuildInMemory's.
func BuildLevelwise(ds *data.Dataset, opt Options, onRow func()) (*Tree, error) {
	schema := ds.Schema
	classCard := schema.Class.Card
	classIdx := schema.ClassIndex()
	cards := schema.ColCards()

	root := &Node{ID: 0, Attrs: allAttrs(schema), Rows: int64(ds.N()), Depth: 0}
	nextID := 1

	type active struct {
		n     *Node
		attrs []int // counted attribute set
		cc    *cc.Table
	}
	activate := func(n *Node) *active {
		attrs := append(append([]int(nil), n.Attrs...), classIdx)
		return &active{n: n, attrs: attrs, cc: cc.NewSized(attrs, cards, classCard)}
	}
	frontier := map[*Node]*active{root: activate(root)}

	for len(frontier) > 0 {
		// One counting pass: route every row to its frontier node.
		for _, r := range ds.Rows {
			if onRow != nil {
				onRow()
			}
			n := root
			for {
				if a, ok := frontier[n]; ok {
					a.cc.AddRow(r, a.attrs)
					break
				}
				if n.Leaf {
					break
				}
				n = descend(n, r)
				if n == nil {
					break
				}
			}
		}

		// Decide every frontier node and assemble the next frontier.
		next := map[*Node]*active{}
		// Deterministic iteration order (by node ID).
		ordered := make([]*active, 0, len(frontier))
		for _, a := range frontier {
			ordered = append(ordered, a)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].n.ID < ordered[j].n.ID })
		for _, a := range ordered {
			for _, child := range grow(a.n, a.cc, classIdx, classCard, opt, &nextID) {
				next[child] = activate(child)
			}
		}
		frontier = next
	}
	return finalize(&Tree{Root: root, Schema: schema}), nil
}

// descend follows the split at internal node n for row r, or returns nil for
// an unseen multiway value.
func descend(n *Node, r data.Row) *Node {
	v := r[n.SplitAttr]
	if !n.Multiway {
		if v == n.SplitVal {
			return n.Children[0]
		}
		return n.Children[1]
	}
	for i, sv := range n.SplitVals {
		if sv == v {
			return n.Children[i]
		}
	}
	return nil
}

// CountsFetcher obtains the counts table for a node identified by its path
// predicate and remaining attribute set. The table must include the class
// pseudo-attribute (attribute index = schema.ClassIndex()).
type CountsFetcher func(path predicate.Conj, attrs []int) (*cc.Table, error)

// BuildWithCounts grows a tree level by level with the shared split logic,
// obtaining each active node's counts table from fetch. The baseline
// strategies (SQL counting, file-based data store) use it; the tree produced
// is identical to Build's and BuildInMemory's for the same data and options.
func BuildWithCounts(schema *data.Schema, rows int64, opt Options, fetch CountsFetcher) (*Tree, error) {
	classCard := schema.Class.Card
	classIdx := schema.ClassIndex()

	root := &Node{ID: 0, Attrs: allAttrs(schema), Rows: rows, Depth: 0}
	nextID := 1
	queue := []*Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]

		table, err := fetch(n.Path, n.Attrs)
		if err != nil {
			return nil, err
		}
		queue = append(queue, grow(n, table, classIdx, classCard, opt, &nextID)...)
	}
	return finalize(&Tree{Root: root, Schema: schema}), nil
}
