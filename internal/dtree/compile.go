package dtree

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/engine"
)

// This file compiles a finished tree into its in-database form of §1's
// deployment story: a flat engine.Model, registered into the engine's model
// catalog, where it persists as an ordinary table. It predicts
// byte-identically to Tree.Predict; the equivalence suite pins that against a
// third form, the nested-CASE statement of compile_test.go.

// Compile flattens the tree into an engine.Model named name. Nodes are laid
// out in depth-first child order with the root at index 0, matching the
// walk order of Dump and Rules so catalog row ids line up with the printed
// tree.
func Compile(t *Tree, name string) (*engine.Model, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("dtree: compile %q: empty tree", name)
	}
	if t.Schema == nil {
		return nil, fmt.Errorf("dtree: compile %q: tree has no schema", name)
	}
	m := &engine.Model{
		Name:    name,
		Cols:    t.Schema.NumAttrs(),
		Classes: t.Schema.Class.Card,
	}
	var flatten func(n *Node, parent int32) int32
	flatten = func(n *Node, parent int32) int32 {
		id := int32(len(m.Nodes))
		counts := make([]int64, m.Classes)
		for c, v := range n.ClassCounts {
			if c < len(counts) {
				counts[c] = v
			}
		}
		mn := engine.ModelNode{
			Parent: parent,
			Leaf:   n.Leaf,
			Attr:   -1,
			Class:  n.Class,
			Counts: counts,
		}
		if !n.Leaf {
			mn.Attr = int32(n.SplitAttr)
			mn.Val = n.SplitVal
			mn.Multiway = n.Multiway
			if n.Multiway {
				mn.Vals = append([]data.Value(nil), n.SplitVals...)
			}
		}
		m.Nodes = append(m.Nodes, mn)
		for _, c := range n.Children {
			kid := flatten(c, id)
			m.Nodes[id].Kids = append(m.Nodes[id].Kids, kid)
		}
		return id
	}
	flatten(t.Root, -1)
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("dtree: compile %q: %v", name, err)
	}
	return m, nil
}
