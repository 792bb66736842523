package engine

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// This file is the vectorized scoring operator: batch prediction executed
// inside the engine against the columnar store, instead of shipping rows to
// the client for a per-row dtree.Eval loop. The model's path trie is compiled
// once per row group into dictionary-code space by the counting kernel's own
// GroupTrie.Compile, zone-map verdicts included, and each row descends it
// once (GroupTrie.descend) to its decision node: the reached leaf, or the
// multiway node none of whose arms holds. The inner loop compares uint16
// codes — no value materialization, no dictionary lookups. The block stream
// comes from the same machinery as the counting kernel — ScanColumnarRange
// for a solo partitioned scan, ScanGroups when a fleet shares one physical
// scan — so scoring pays the identical page/eval/transmit shape as building,
// plus the score-specific charges: ScoreRowEval per row, and ModelNodeProbe
// per node on the path to the decision node (its depth + 1).

// ScoreResult is one scoring pass over a table: the predicted class per row
// in heap (insertion) order, plus the index of the model node that made each
// prediction — the reached leaf, or the internal node whose multiway split
// had no arm for the row's value — from which per-row class distributions
// are read.
//
// The result is allocated once, at the table's row count, when the pass opens
// (Server.OpenScore), and is readable while it fills: the scan's lanes write
// disjoint heap-order ranges of Classes and Nodes and publish their progress
// once per block, and Wait hands a reader the watermark — rows [0, n) are
// final — until the pass ends, finished or failed (Finish). Writers append,
// signal and yield to a reader they woke; they never wait for one.
// Engine.ScoreTable and Server.ScoreColumnar return the result already
// finished.
type ScoreResult struct {
	Model   string
	Rows    int64        // the table's row count: len(Classes)
	Classes []data.Value // prediction per row, heap order
	Nodes   []int32      // decision node per row (index into Model.Nodes)

	mu      sync.Mutex
	moved   sync.Cond   // the watermark moved or the pass ended; L is &mu
	waiting int         // readers parked in Wait
	lanes   []scoreLane // the ranges the scan's lanes fill, in partition order
	done    bool
	err     error
}

// scoreLane is one lane's range of a result, filled in ascending order: the
// rows below next are final, the lane is full at hi.
type scoreLane struct{ next, hi int }

func newScoreResult(m *Model, rows int) *ScoreResult {
	r := &ScoreResult{
		Model:   m.Name,
		Rows:    int64(rows),
		Classes: make([]data.Value, rows),
		Nodes:   make([]int32, rows),
	}
	r.moved.L = &r.mu
	return r
}

// split declares the lanes about to fill r: lane p writes rows
// [starts[p], starts[p+1]).
func (r *ScoreResult) split(starts []int) {
	lanes := make([]scoreLane, len(starts)-1)
	for p := range lanes {
		lanes[p] = scoreLane{next: starts[p], hi: starts[p+1]}
	}
	r.mu.Lock()
	r.lanes = lanes
	r.mu.Unlock()
}

// publish records that lane part's rows below next are final and, when that
// moved the watermark under a waiting reader, wakes it and yields to it.
// Broadcast alone leaves the reader in this P's run-next slot until the scan
// blocks or an idle P steals it — 0.5 to 4 ms of a 6 ms scan on the benchmark
// host. The yield is a scheduling point, not a wait: the reader frames what is
// new and parks again, or parks at once on a full socket, and the scan goes on.
func (r *ScoreResult) publish(part, next int) {
	r.mu.Lock()
	before := r.watermark()
	r.lanes[part].next = next
	wake := r.waiting > 0 && r.watermark() > before
	r.mu.Unlock()
	if wake {
		r.moved.Broadcast()
		runtime.Gosched()
	}
}

// watermark is the length of the final prefix: every lane before the first
// unfinished one is full, and that one is final up to its next row. Callers
// hold mu.
func (r *ScoreResult) watermark() int {
	n := 0
	for _, l := range r.lanes {
		n = l.next
		if l.next < l.hi {
			break
		}
	}
	return n
}

// Wait blocks until more than have rows are final or the pass has ended, and
// returns the watermark n — rows [0, n) of Classes and Nodes will not change
// and may be read without further synchronization — whether the pass has
// ended, and, if it failed, why. A finished pass reports n == Rows.
func (r *ScoreResult) Wait(have int) (n int, done bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if n = r.watermark(); n > have || r.done {
			return n, r.done, r.err
		}
		r.waiting++
		r.moved.Wait()
		r.waiting--
	}
}

// Err waits for the pass to end and returns its error.
func (r *ScoreResult) Err() error {
	_, _, err := r.Wait(len(r.Classes))
	return err
}

// Finish ends the pass: finished when err is nil — every row is final — and
// failed otherwise, the rows published so far staying readable. Whoever runs
// the scan calls it once everything a reader may ask of the finished pass is
// in place; a result already ended keeps its first outcome.
func (r *ScoreResult) Finish(err error) {
	r.mu.Lock()
	if !r.done {
		r.done, r.err = true, err
	}
	r.mu.Unlock()
	r.moved.Broadcast()
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

// ResultSet materializes a finished pass's predictions in the one shape every
// SCORE TABLE route returns: class, c0 … c{k-1} per row, in heap order.
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

// ScoreConsumer scores every row of a columnar block stream into one lane's
// range of a ScoreResult: the per-block body of the scoring operator, driven
// either by one lane of a partitioned ScanColumnarRange (Server.ScoreInto) or
// by ScanGroups as a fleet session's attachment to a shared physical scan —
// the same kernel either way, so shared and solo scoring produce identical
// predictions.
type ScoreConsumer struct {
	model *Model
	lane  *sim.Meter
	costs sim.Costs
	gt    GroupTrie // the model's path trie, compiled against the current group
	res   *ScoreResult
	part  int // the lane of res this consumer fills
	next  int // the row of res the next scored row lands in
}

// Consumer declares r filled by a single lane — a fleet session's attachment
// to a shared scan of the whole table — and returns that lane's consumer,
// charging all scoring costs to lane.
func (r *ScoreResult) Consumer(m *Model, lane *sim.Meter) *ScoreConsumer {
	r.split([]int{0, len(r.Classes)})
	return r.consumer(m, 0, lane)
}

func (r *ScoreResult) consumer(m *Model, part int, lane *sim.Meter) *ScoreConsumer {
	return &ScoreConsumer{model: m, lane: lane, costs: lane.Costs(), res: r, part: part, next: r.lanes[part].next}
}

// NeedCols returns the columns the scoring scan must read: the model's split
// attributes. Always non-nil — a single-leaf model reads no column pages.
func (c *ScoreConsumer) NeedCols() []int { return c.model.Attrs() }

// Consume scores one block into the result and publishes it; it always keeps
// the consumer attached. The scan selects every row (match-all), so blocks
// arrive dense and in heap order.
func (c *ScoreConsumer) Consume(blk *ColBlock) bool {
	if g := blk.Group; c.gt.g != g {
		c.gt.Compile(g, c.model.trie)
	}
	end := c.next + len(blk.Sel)
	preds, nodes := c.res.Classes[c.next:end], c.res.Nodes[c.next:end]
	var probes int64
	for k, i := range blk.Sel {
		n := c.gt.descend(i)
		probes += int64(c.model.depth[n]) + 1
		preds[k] = c.model.Nodes[n].Class
		nodes[k] = n
	}
	c.next = end
	c.res.publish(c.part, end)
	c.lane.Charge(sim.CtrScoreBlocks, 0, 1)
	c.lane.Charge(sim.CtrScoreRows, c.costs.ScoreRowEval, int64(len(blk.Sel)))
	c.lane.Charge(sim.CtrModelProbes, c.costs.ModelNodeProbe, probes)
	return true
}

// scoreCheck validates that t can be scored with m.
func scoreCheck(t *Table, m *Model) error {
	attrs := m.Attrs()
	if len(attrs) > 0 && attrs[len(attrs)-1] >= len(t.Cols) {
		return fmt.Errorf("engine: model %q splits on column %d; table %q has %d",
			m.Name, attrs[len(attrs)-1], t.Name, len(t.Cols))
	}
	return nil
}

// openScore checks that t can be scored with m and allocates the pass's
// result at t's row count. The table must not change before the scan ran.
func openScore(t *Table, m *Model) (*ScoreResult, error) {
	if err := scoreCheck(t, m); err != nil {
		return nil, err
	}
	return newScoreResult(m, int(t.colstore.NumRows())), nil
}

// scoreColumnar is the shared driver behind Engine.ScoreTable and
// Server.ScoreInto: a partitioned columnar scan of t fanned over up to
// workers lanes of disjoint row-group ranges, each walking the compiled model
// per block and writing its own heap-order range of res — sized from its row
// groups' row counts — so the output is byte-identical at any worker count.
// Finishing res is the caller's.
func scoreColumnar(res *ScoreResult, t *Table, m *Model, meter *sim.Meter, tracer *obs.Tracer, workers int) {
	ng := t.colstore.NumGroups()
	if workers > ng {
		workers = ng
	}
	if workers < 1 {
		workers = 1 // also the empty table: one lane, zero groups
	}
	starts := make([]int, workers+1)
	for part := 0; part < workers; part++ {
		lo, hi := RangeOf(part, workers, ng, nil)
		starts[part+1] = starts[part]
		for gi := lo; gi < hi; gi++ {
			starts[part+1] += t.colstore.Group(gi).NumRows()
		}
	}
	res.split(starts)
	srv := &Server{meter: meter, tracer: tracer, table: t}
	needCols := m.Attrs()
	sp := tracer.Start(obs.CatScore, "score").
		AttrStr("model", m.Name).
		Attr("model_nodes", int64(len(m.Nodes))).
		Attr("workers", int64(workers))

	obs.RunLanes(meter, tracer, workers, func(part int, lane *sim.Meter, ltr *obs.Tracer) {
		lsp := ltr.Start(obs.CatLane, "lane").SetPartition(part, workers)
		lo, hi := RangeOf(part, workers, ng, nil)
		sc := res.consumer(m, part, lane)
		srv.ScanColumnarRange(predicate.MatchAll(), needCols, lo, hi, lane, sc.Consume)
		lsp.SetRows(int64(sc.next - starts[part])).End()
	})
	sp.SetRows(res.Rows).End()
}

// ScoreTable scores every row of t with m inside the engine, charging the
// engine's meter: the SCORE TABLE execution path. The result is finished.
func (e *Engine) ScoreTable(t *Table, m *Model, workers int) (*ScoreResult, error) {
	return scoreWhole(t, m, e.meter, e.tracer, workers)
}

// scoreWhole opens, fills and finishes a pass in one call.
func scoreWhole(t *Table, m *Model, meter *sim.Meter, tracer *obs.Tracer, workers int) (*ScoreResult, error) {
	res, err := openScore(t, m)
	if err != nil {
		return nil, err
	}
	scoreColumnar(res, t, m, meter, tracer, workers)
	res.Finish(nil)
	return res, nil
}

// OpenScore checks that the server's table can be scored with m — so a
// statement that cannot run fails before it answers anything — and returns
// the pass's result, allocated and empty, for ScoreInto or a shared scan's
// ScoreResult.Consumer to fill.
func (s *Server) OpenScore(m *Model) (*ScoreResult, error) {
	return openScore(s.table, m)
}

// ScoreInto fills res, opened on this server for m, by the server's own
// partitioned scan, charging the server view's meter and tracer — the form a
// fleet scoring session takes when no shared scan is available. It leaves res
// unfinished: the session's owner ends it.
func (s *Server) ScoreInto(res *ScoreResult, m *Model, workers int) {
	scoreColumnar(res, s.table, m, s.meter, s.Tracer(), workers)
}

// ScoreColumnar scores every row of the server's table with m on the server
// view's meter and tracer and returns the finished result.
func (s *Server) ScoreColumnar(m *Model, workers int) (*ScoreResult, error) {
	return scoreWhole(s.table, m, s.meter, s.Tracer(), workers)
}
