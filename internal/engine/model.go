package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/predicate"
)

// This file is the engine half of in-database scoring: a compiled decision
// model as a flat node array and the trie of its node paths (which the
// vectorized scoring kernel of score.go compiles per row group), plus the
// model catalog — every registered model is materialized as an ordinary
// engine table, one row per node, so models survive as data: they can be
// inspected with plain SELECTs, travel with a dump of the catalog, and be
// reconstructed without the client that built them. dtree.Compile produces
// Models from finished trees; the engine never imports the tree builder.

// ModelCatalogPrefix prefixes the catalog table backing each registered
// model: model "m" lives in table "model_m".
const ModelCatalogPrefix = "model_"

// ModelCatalogTable returns the catalog table name backing a model.
func ModelCatalogTable(model string) string { return ModelCatalogPrefix + model }

// ModelNode is one node of a compiled model. Nodes are addressed by index
// into Model.Nodes; node 0 is the root.
type ModelNode struct {
	Parent int32 // parent node index, -1 at the root
	Leaf   bool

	// Split, meaningful at internal nodes only.
	Attr     int32      // split attribute (column index), -1 at leaves
	Val      data.Value // binary split value: Kids[0] iff row[Attr] == Val
	Multiway bool
	Vals     []data.Value // multiway arm values, aligned with Kids
	Kids     []int32      // child node indices

	// Prediction state, carried by every node: internal nodes keep their
	// majority class and distribution as the fallback for attribute values
	// unseen at training time (the multiway dictionary-miss rule).
	Class  data.Value
	Counts []int64 // class-count distribution over the training rows at the node
}

// Model is a compiled classification model: a flat array of nodes rooted at
// index 0. It is the common representation behind the nested-CASE SQL form
// and the persisted catalog form — all three score identically. Every scorer
// decides a row through the model's path trie (§4.3.1: a node is the
// conjunction of the edge conditions on its path), which Validate builds, so a
// model is validated before it is scored: RegisterModel, ModelFromCatalog and
// dtree.Compile do it.
type Model struct {
	Name    string
	Cols    int // training-schema width (scored rows index columns < Cols)
	Classes int // class-label cardinality (length of every Counts slice)
	Nodes   []ModelNode

	trie  *predicate.Trie // conjunction i is node i's path
	depth []int32         // per node: the edges on its path
}

// Validate checks structural invariants — a tree rooted at node 0 that
// reaches every node, with consistent parent/child pointers, two kids per
// binary split, distinct arm values aligned with the kids per multiway split,
// and a full distribution at every node — and builds the model's path trie.
// Node i's path extends its parent's with A = Val for a binary split's first
// child and A <> Val for its second, or with A = Vals[k] for multiway arm k.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: empty name")
	}
	if m.Classes < 1 {
		return fmt.Errorf("model %q: class cardinality %d", m.Name, m.Classes)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("model %q: no nodes", m.Name)
	}
	if m.Nodes[0].Parent != -1 {
		return fmt.Errorf("model %q: node 0 is not a root (parent %d)", m.Name, m.Nodes[0].Parent)
	}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if i > 0 {
			if n.Parent < 0 || int(n.Parent) >= len(m.Nodes) || int(n.Parent) == i {
				return fmt.Errorf("model %q: node %d has parent %d", m.Name, i, n.Parent)
			}
		}
		if len(n.Counts) != m.Classes {
			return fmt.Errorf("model %q: node %d carries %d counts, want %d", m.Name, i, len(n.Counts), m.Classes)
		}
		for _, c := range n.Counts {
			if c < 0 || c > math.MaxInt32 {
				return fmt.Errorf("model %q: node %d count %d out of catalog range", m.Name, i, c)
			}
		}
		if n.Class < 0 || int(n.Class) >= m.Classes {
			return fmt.Errorf("model %q: node %d predicts class %d of %d", m.Name, i, n.Class, m.Classes)
		}
		if n.Leaf {
			if len(n.Kids) != 0 {
				return fmt.Errorf("model %q: leaf %d has %d children", m.Name, i, len(n.Kids))
			}
			continue
		}
		if n.Attr < 0 || int(n.Attr) >= m.Cols {
			return fmt.Errorf("model %q: node %d splits on attribute %d of %d", m.Name, i, n.Attr, m.Cols)
		}
		if n.Multiway {
			if len(n.Vals) != len(n.Kids) || len(n.Kids) == 0 {
				return fmt.Errorf("model %q: multiway node %d has %d arms over %d values", m.Name, i, len(n.Kids), len(n.Vals))
			}
			vals := slices.Clone(n.Vals)
			slices.Sort(vals)
			for k := 1; k < len(vals); k++ {
				if vals[k] == vals[k-1] {
					return fmt.Errorf("model %q: multiway node %d repeats arm value %d", m.Name, i, vals[k])
				}
			}
		} else if len(n.Kids) != 2 {
			return fmt.Errorf("model %q: binary node %d has %d children", m.Name, i, len(n.Kids))
		}
		for _, k := range n.Kids {
			if k <= 0 || int(k) >= len(m.Nodes) {
				return fmt.Errorf("model %q: node %d has child %d", m.Name, i, k)
			}
			if m.Nodes[k].Parent != int32(i) {
				return fmt.Errorf("model %q: node %d claims child %d whose parent is %d", m.Name, i, k, m.Nodes[k].Parent)
			}
		}
	}
	return m.buildTrie()
}

// buildTrie derives every node's path and depth from the root down and builds
// the trie of the paths. A node the descent does not reach — its parent does
// not list it — would have no path.
func (m *Model) buildTrie() error {
	paths := make([]predicate.Conj, len(m.Nodes))
	depth := make([]int32, len(m.Nodes))
	reached := make([]bool, len(m.Nodes))
	reached[0] = true
	order := make([]int32, 1, len(m.Nodes))
	for q := 0; q < len(order); q++ {
		p := order[q]
		n := &m.Nodes[p]
		for a, k := range n.Kids {
			if reached[k] {
				return fmt.Errorf("model %q: node %d lists child %d twice", m.Name, p, k)
			}
			c := predicate.Cond{Attr: int(n.Attr), Val: n.Val}
			switch {
			case n.Multiway:
				c.Val = n.Vals[a]
			case a == 1:
				c.Op = predicate.Ne
			}
			reached[k], paths[k], depth[k] = true, paths[p].And(c), depth[p]+1
			order = append(order, k)
		}
	}
	for i, ok := range reached {
		if !ok {
			return fmt.Errorf("model %q: node %d is not reached from the root: its parent %d does not list it", m.Name, i, m.Nodes[i].Parent)
		}
	}
	m.trie, m.depth = predicate.NewTrie(paths), depth
	return nil
}

// Attrs returns the sorted distinct split attributes — the only columns the
// scoring scan has to read. Always non-nil (a single-leaf model needs no
// columns, and an empty slice keeps the page model from charging all of
// them).
func (m *Model) Attrs() []int {
	seen := map[int]bool{}
	for i := range m.Nodes {
		if !m.Nodes[i].Leaf {
			seen[int(m.Nodes[i].Attr)] = true
		}
	}
	out := make([]int, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Predict classifies one row (the unmetered convenience form; the metered
// paths run through the scoring kernel or the classify() evaluator).
func (m *Model) Predict(row data.Row) data.Value {
	return m.Nodes[m.trie.Descend(row)].Class
}

// catalogCols returns the catalog table's column layout for a model with the
// given class cardinality: fixed node/edge/split/prediction columns followed
// by one count column per class.
func catalogCols(classes int) []string {
	cols := []string{"node", "parent", "arm", "leaf", "multiway", "split_attr", "split_val", "arm_val", "class"}
	for c := 0; c < classes; c++ {
		cols = append(cols, fmt.Sprintf("c%d", c))
	}
	return cols
}

// catalogRows encodes the model as catalog rows, one per node: identity
// (node, parent, arm = index within the parent's children), the edge value
// that routes a row from the parent to this node (arm_val), this node's own
// split (split_attr, split_val, multiway), and its prediction state (class
// and the per-class counts).
func (m *Model) catalogRows() []data.Row {
	rows := make([]data.Row, len(m.Nodes))
	arm := make([]int32, len(m.Nodes))
	armVal := make([]data.Value, len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		for k, kid := range n.Kids {
			arm[kid] = int32(k)
			if n.Multiway {
				armVal[kid] = n.Vals[k]
			} else {
				armVal[kid] = n.Val
			}
		}
	}
	// The root has no incoming edge, so its arm_val cell is free: it carries
	// the training-schema width, which the reconstruction needs to size
	// scored rows exactly as the original model did.
	armVal[0] = data.Value(m.Cols)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		row := make(data.Row, 0, 9+m.Classes)
		splitAttr, splitVal := int32(-1), data.Value(0)
		if !n.Leaf {
			splitAttr, splitVal = n.Attr, n.Val
		}
		a := int32(-1)
		if i > 0 {
			a = arm[i]
		}
		row = append(row,
			data.Value(i), data.Value(n.Parent), data.Value(a),
			data.Value(b32(n.Leaf)), data.Value(b32(n.Multiway)),
			data.Value(splitAttr), splitVal, armVal[i], n.Class)
		for _, c := range n.Counts {
			row = append(row, data.Value(c))
		}
		rows[i] = row
	}
	return rows
}

func b32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// RegisterModel validates the model, materializes its catalog table
// (ModelCatalogTable(name), one row per node) and caches it for classify()
// and SCORE TABLE. Registration fails if a model of the same name — or a
// clashing table — already exists. The catalog load is unmetered, like every
// other bulk load.
func (e *Engine) RegisterModel(m *Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if _, ok := e.models[m.Name]; ok {
		return fmt.Errorf("engine: model %q already registered", m.Name)
	}
	t, err := e.CreateTable(ModelCatalogTable(m.Name), catalogCols(m.Classes))
	if err != nil {
		return err
	}
	if err := e.BulkLoad(t, m.catalogRows()); err != nil {
		return err
	}
	e.models[m.Name] = m
	return nil
}

// Model resolves a registered model by name. A model whose in-memory entry
// is gone (a fresh registry over surviving tables) is reconstructed from its
// catalog table — that round trip is what "models survive as data" means —
// and re-cached.
func (e *Engine) Model(name string) (*Model, error) {
	if m, ok := e.models[name]; ok {
		return m, nil
	}
	m, err := e.ModelFromCatalog(name)
	if err == nil {
		e.models[name] = m
	}
	return m, err
}

// ModelNames lists every resolvable model, sorted: cached entries plus
// catalog tables awaiting reconstruction.
func (e *Engine) ModelNames() []string {
	seen := map[string]bool{}
	for n := range e.models {
		seen[n] = true
	}
	for tn := range e.tables {
		if strings.HasPrefix(tn, ModelCatalogPrefix) {
			seen[strings.TrimPrefix(tn, ModelCatalogPrefix)] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModelFromCatalog reconstructs a model from its catalog table, charging a
// metered scan of the table (loading a persisted model is a real read): a
// statement's scan of every column, through the one block loop. The result is
// validated, so a corrupted catalog is an error, not a bad model.
func (e *Engine) ModelFromCatalog(name string) (*Model, error) {
	t, err := e.Table(ModelCatalogTable(name))
	if err != nil {
		return nil, fmt.Errorf("engine: no model %q: %v", name, err)
	}
	const fixed = 9
	if len(t.Cols) <= fixed {
		return nil, fmt.Errorf("engine: model %q: catalog has %d columns, want > %d", name, len(t.Cols), fixed)
	}
	classes := len(t.Cols) - fixed
	nn := int(t.NumRows())
	if nn == 0 {
		return nil, fmt.Errorf("engine: model %q: catalog has no nodes", name)
	}
	m := &Model{Name: name, Classes: classes, Nodes: make([]ModelNode, nn)}
	filled := make([]bool, nn)
	// Every non-root row also names its arm index and the value that routes a
	// scored row from its parent to it: child pointers and arm values are
	// re-derived from these edge columns below.
	type edge struct {
		arm    int32
		armVal data.Value
	}
	edges := make([]edge, nn)
	all := make([]int, len(t.Cols))
	for c := range all {
		all[c] = c
	}
	err = e.scanRows(context.Background(), t, nil, all, func(row data.Row) error {
		id := int(row[0])
		if id < 0 || id >= nn || filled[id] {
			return fmt.Errorf("engine: model %q: catalog node id %d invalid or duplicated", name, id)
		}
		filled[id] = true
		edges[id] = edge{arm: int32(row[2]), armVal: row[7]}
		n := &m.Nodes[id]
		n.Parent = int32(row[1])
		n.Leaf = row[3] != 0
		n.Multiway = row[4] != 0
		n.Attr = int32(row[5])
		n.Val = row[6]
		n.Class = row[8]
		n.Counts = make([]int64, classes)
		for c := 0; c < classes; c++ {
			n.Counts[c] = int64(row[fixed+c])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("engine: model %q: catalog is missing node %d", name, id)
		}
	}
	kids := make([][]int32, nn)
	for id := 1; id < nn; id++ {
		p := int(m.Nodes[id].Parent)
		if p < 0 || p >= nn {
			return nil, fmt.Errorf("engine: model %q: node %d has parent %d", name, id, p)
		}
		kids[p] = append(kids[p], int32(id))
	}
	maxAttr := -1
	for id := 0; id < nn; id++ {
		n := &m.Nodes[id]
		if int(n.Attr) > maxAttr {
			maxAttr = int(n.Attr)
		}
		if n.Leaf {
			n.Attr = -1
			continue
		}
		ks := kids[id]
		sort.Slice(ks, func(a, b int) bool { return edges[ks[a]].arm < edges[ks[b]].arm })
		for i, k := range ks {
			if int(edges[k].arm) != i {
				return nil, fmt.Errorf("engine: model %q: node %d arm %d missing or duplicated", name, id, i)
			}
		}
		n.Kids = ks
		if n.Multiway {
			n.Vals = make([]data.Value, len(ks))
			for i, k := range ks {
				n.Vals[i] = edges[k].armVal
			}
		}
	}
	m.Cols = int(edges[0].armVal) // stashed in the root's free arm_val cell
	if m.Cols < maxAttr+1 {
		return nil, fmt.Errorf("engine: model %q: catalog width %d below split attribute %d", name, m.Cols, maxAttr)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
