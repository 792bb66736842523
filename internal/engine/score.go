package engine

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file is the vectorized scoring operator: batch prediction executed
// inside the engine against the columnar store, instead of shipping rows to
// the client for a per-row dtree.Eval loop. The model is compiled once per
// row group into dictionary-code space (groupModel), so the per-row walk
// compares uint16 codes — no value materialization, no dictionary lookups in
// the inner loop. The block stream comes from the same machinery as the
// counting kernel — ScanColumnarRange for a solo partitioned scan,
// ScanGroups when a fleet shares one physical scan — so scoring pays
// the identical page/eval/transmit shape as building, plus the new
// score-specific charges (ScoreRowEval per row, ModelNodeProbe per visited
// node).

// ScoreResult is one scoring pass over a table: the predicted class per row
// in heap (insertion) order, plus the index of the model node that made each
// prediction — the reached leaf, or the internal node whose multiway split
// had no arm for the row's value — from which per-row class distributions
// are read.
type ScoreResult struct {
	Model   string
	Rows    int64
	Classes []data.Value // prediction per row, heap order
	Nodes   []int32      // decision node per row (index into Model.Nodes)
}

// Dist returns row i's class-count distribution: the counts at its decision
// node. The caller must pass the model the result was scored with.
func (r *ScoreResult) Dist(m *Model, i int) []int64 {
	return m.Nodes[r.Nodes[i]].Counts
}

// ScoreCols names a scored result's columns for a model with the given class
// count: the predicted class, then one count column per class.
func ScoreCols(classes int) []string {
	cols := []string{"class"}
	for c := 0; c < classes; c++ {
		cols = append(cols, fmt.Sprintf("c%d", c))
	}
	return cols
}

// ResultSet materializes the predictions in the one shape every SCORE TABLE
// route returns: class, c0 … c{k-1} per row, in heap order.
func (r *ScoreResult) ResultSet(m *Model) *ResultSet {
	rs := &ResultSet{Cols: ScoreCols(m.Classes), Rows: make([][]Val, len(r.Classes))}
	for i, c := range r.Classes {
		row := make([]Val, 1, len(rs.Cols))
		row[0].I = int64(c)
		for _, n := range r.Dist(m, i) {
			row = append(row, Val{I: n})
		}
		rs.Rows[i] = row
	}
	return rs
}

// groupNode is one model node compiled against one row group's dictionaries.
type groupNode struct {
	leaf       bool
	multiway   bool
	attr       int32
	valPresent bool // binary: split value exists in the group's dictionary
	valCode    uint16
	kid0, kid1 int32
	armByCode  []int32 // multiway: dictionary code -> child, -1 = fallback here
}

// groupModel is a model compiled into one group's code space.
type groupModel struct {
	nodes []groupNode
}

func (gm *groupModel) compile(g *storage.ColGroup, m *Model) {
	if cap(gm.nodes) < len(m.Nodes) {
		gm.nodes = make([]groupNode, len(m.Nodes))
	}
	gm.nodes = gm.nodes[:len(m.Nodes)]
	for i := range m.Nodes {
		n := &m.Nodes[i]
		gn := &gm.nodes[i]
		*gn = groupNode{leaf: n.Leaf, multiway: n.Multiway, attr: n.Attr}
		if n.Leaf {
			continue
		}
		if !n.Multiway {
			gn.valCode, gn.valPresent = g.FindCode(int(n.Attr), n.Val)
			gn.kid0, gn.kid1 = n.Kids[0], n.Kids[1]
			continue
		}
		arms := make([]int32, len(g.Dict(int(n.Attr))))
		for c := range arms {
			arms[c] = -1
		}
		for k, v := range n.Vals {
			if code, ok := g.FindCode(int(n.Attr), v); ok {
				arms[code] = n.Kids[k]
			}
		}
		gn.armByCode = arms
	}
}

// walk scores group-relative row i: the decision node plus nodes probed.
// Semantically identical to Model.predictNode, in code space — a group
// dictionary miss on a binary split value routes to the else-arm (the value
// cannot equal the split value), and a multiway code with no arm falls back
// to the node's majority class, exactly the unseen-value rule.
func (gm *groupModel) walk(g *storage.ColGroup, i int32) (int32, int64) {
	n := int32(0)
	probes := int64(0)
	for {
		gn := &gm.nodes[n]
		probes++
		if gn.leaf {
			return n, probes
		}
		code := g.Codes(int(gn.attr))[i]
		if !gn.multiway {
			if gn.valPresent && code == gn.valCode {
				n = gn.kid0
			} else {
				n = gn.kid1
			}
			continue
		}
		next := gn.armByCode[code]
		if next < 0 {
			return n, probes
		}
		n = next
	}
}

// ScoreConsumer scores every selected row of a columnar block stream: the
// per-block body of the scoring operator, driven either by one lane of a
// partitioned ScanColumnarRange (ScoreColumnar) or by ScanGroups as
// a fleet session's attachment to a shared physical scan — the same kernel
// either way, so shared and solo scoring produce identical predictions.
type ScoreConsumer struct {
	model    *Model
	lane     *sim.Meter
	costs    sim.Costs
	curGroup *storage.ColGroup
	gm       groupModel
	preds    []data.Value
	nodes    []int32
}

// NewScoreConsumer creates a consumer charging all scoring costs to lane.
func NewScoreConsumer(m *Model, lane *sim.Meter) *ScoreConsumer {
	return &ScoreConsumer{model: m, lane: lane, costs: lane.Costs()}
}

// NeedCols returns the columns the scoring scan must read: the model's split
// attributes. Always non-nil — a single-leaf model reads no column pages.
func (c *ScoreConsumer) NeedCols() []int { return c.model.Attrs() }

// Consume scores one block; it always keeps the consumer attached.
func (c *ScoreConsumer) Consume(blk *ColBlock) bool {
	g := blk.Group
	if g != c.curGroup {
		c.curGroup = g
		c.gm.compile(g, c.model)
	}
	var probes int64
	for _, i := range blk.Sel {
		n, p := c.gm.walk(g, i)
		probes += p
		c.preds = append(c.preds, c.model.Nodes[n].Class)
		c.nodes = append(c.nodes, n)
	}
	c.lane.Charge(sim.CtrScoreBlocks, 0, 1)
	c.lane.Charge(sim.CtrScoreRows, c.costs.ScoreRowEval, int64(len(blk.Sel)))
	c.lane.Charge(sim.CtrModelProbes, c.costs.ModelNodeProbe, probes)
	return true
}

// Result returns the consumer's accumulated predictions.
func (c *ScoreConsumer) Result() *ScoreResult {
	return &ScoreResult{
		Model:   c.model.Name,
		Rows:    int64(len(c.preds)),
		Classes: c.preds,
		Nodes:   c.nodes,
	}
}

// scoreCheck validates that t can be scored with m.
func scoreCheck(t *Table, m *Model) error {
	if !t.columnarComplete() {
		return fmt.Errorf("engine: table %q has no columnar copy to score", t.Name)
	}
	attrs := m.Attrs()
	if len(attrs) > 0 && attrs[len(attrs)-1] >= len(t.Cols) {
		return fmt.Errorf("engine: model %q splits on column %d; table %q has %d",
			m.Name, attrs[len(attrs)-1], t.Name, len(t.Cols))
	}
	return nil
}

// scoreColumnar is the shared driver behind Engine.ScoreTable and
// Server.ScoreColumnar: a partitioned columnar scan of t fanned over up to
// workers lanes of disjoint row-group ranges, each walking the compiled
// model per block, with lane results concatenated in partition order so the
// output is byte-identical at any worker count.
func scoreColumnar(t *Table, m *Model, meter *sim.Meter, tracer *obs.Tracer, workers int) (*ScoreResult, error) {
	if err := scoreCheck(t, m); err != nil {
		return nil, err
	}
	ng := t.colstore.NumGroups()
	if workers > ng {
		workers = ng
	}
	if workers < 1 {
		workers = 1 // also the empty table: one lane, zero groups
	}
	srv := &Server{meter: meter, tracer: tracer, table: t}
	needCols := m.Attrs()
	sp := tracer.Start(obs.CatScore, "score").
		AttrStr("model", m.Name).
		Attr("model_nodes", int64(len(m.Nodes))).
		Attr("workers", int64(workers))

	parts := make([]*ScoreConsumer, workers)
	obs.RunLanes(meter, tracer, workers, func(part int, lane *sim.Meter, ltr *obs.Tracer) {
		lsp := ltr.Start(obs.CatLane, "lane").SetPartition(part, workers)
		lo, hi := RangeOf(part, workers, ng, nil)
		sc := NewScoreConsumer(m, lane)
		parts[part] = sc
		srv.ScanColumnarRange(predicate.MatchAll(), needCols, lo, hi, lane, sc.Consume)
		lsp.SetRows(int64(len(sc.preds))).End()
	})

	res := &ScoreResult{Model: m.Name}
	for _, sc := range parts {
		res.Classes = append(res.Classes, sc.preds...)
		res.Nodes = append(res.Nodes, sc.nodes...)
	}
	res.Rows = int64(len(res.Classes))
	sp.SetRows(res.Rows).End()
	return res, nil
}

// ScoreTable scores every row of t with m inside the engine, charging the
// engine's meter: the SCORE TABLE execution path.
func (e *Engine) ScoreTable(t *Table, m *Model, workers int) (*ScoreResult, error) {
	return scoreColumnar(t, m, e.meter, e.tracer, workers)
}

// ScoreColumnar scores every row of the server's table with m, charging the
// server view's meter and tracer — the per-session form fleet scoring
// sessions use when no shared scan is available.
func (s *Server) ScoreColumnar(m *Model, workers int) (*ScoreResult, error) {
	return scoreColumnar(s.table, m, s.meter, s.Tracer(), workers)
}
