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
// for a solo scan, ScanGroups when a fleet shares one physical scan — so scoring pays the identical page/eval/transmit shape as building,
// plus the score-specific charges: ScoreRowEval per row, and ModelNodeProbe
// per node on the path to the decision node (its depth + 1).

// ScoreResult is one scoring pass over a table: the predicted class per row
// in heap (insertion) order, plus the index of the model node that made each
// prediction — the reached leaf, or the internal node whose multiway split
// had no arm for the row's value — from which per-row class distributions
// are read.
//
// The result is allocated once, at the table's row count, when the pass opens
// (Server.OpenScore), and is readable while it fills: the scan writes Classes
// and Nodes in heap order and publishes its progress once per block, and Wait
// hands a reader the watermark — rows [0, n) are final — until the pass ends,
// finished or failed (Finish). Writers append,
// signal and yield to a reader they woke; they never wait for one.
// Engine.ScoreTable and Server.ScoreColumnar return the result already
// finished.
type ScoreResult struct {
	Model   string
	Rows    int64        // the table's row count: len(Classes)
	Classes []data.Value // prediction per row, heap order
	Nodes   []int32      // decision node per row (index into Model.Nodes)

	mu      sync.Mutex
	moved   sync.Cond // the watermark moved or the pass ended; L is &mu
	waiting int       // readers parked in Wait
	next    int       // the watermark: rows below it are final
	done    bool
	err     error
}

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

// publish records that the rows below next are final and, when that moved
// the watermark under a waiting reader, wakes it and yields to it.
// Broadcast alone leaves the reader in this P's run-next slot until the scan
// blocks or an idle P steals it — 0.5 to 4 ms of a 6 ms scan on the benchmark
// host. The yield is a scheduling point, not a wait: the reader frames what is
// new and parks again, or parks at once on a full socket, and the scan goes on.
func (r *ScoreResult) publish(next int) {
	r.mu.Lock()
	wake := r.waiting > 0 && next > r.next
	r.next = next
	r.mu.Unlock()
	if wake {
		r.moved.Broadcast()
		runtime.Gosched()
	}
}

// Wait blocks until more than have rows are final or the pass has ended, and
// returns the watermark n — rows [0, n) of Classes and Nodes will not change
// and may be read without further synchronization — whether the pass has
// ended, and, if it failed, why. A finished pass reports n == Rows.
func (r *ScoreResult) Wait(have int) (n int, done bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if n = r.next; n > have || r.done {
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

// ScoreConsumer scores every row of a columnar block stream into a
// ScoreResult, in heap order: the per-block body of the scoring operator,
// driven either by a solo ScanColumnarRange (Server.ScoreInto) or by
// ScanGroups as a fleet session's attachment to a shared physical scan —
// the same kernel either way, so shared and solo scoring produce identical
// predictions.
type ScoreConsumer struct {
	model *Model
	lane  *sim.Meter
	costs sim.Costs
	gt    GroupTrie // the model's path trie, compiled against the current group
	res   *ScoreResult
	next  int // the row of res the next scored row lands in
}

// Consumer returns the consumer that fills r from a scan of the whole table —
// the server's own, or a fleet session's attachment to a shared one —
// charging all scoring costs to lane.
func (r *ScoreResult) Consumer(m *Model, lane *sim.Meter) *ScoreConsumer {
	return &ScoreConsumer{model: m, lane: lane, costs: lane.Costs(), res: r}
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
	c.res.publish(end)
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
// Server.ScoreInto: one columnar scan of t, walking the compiled model per
// block and writing res in heap order. Finishing res is the caller's.
func scoreColumnar(res *ScoreResult, t *Table, m *Model, meter *sim.Meter, tracer *obs.Tracer) {
	srv := &Server{meter: meter, tracer: tracer, table: t}
	sp := tracer.Start(obs.CatScore, "score").
		AttrStr("model", m.Name).
		Attr("model_nodes", int64(len(m.Nodes))).
		Attr("workers", 1)
	lsp := tracer.Start(obs.CatLane, "lane").SetPartition(0, 1)
	sc := res.Consumer(m, meter)
	srv.ScanColumnarRange(predicate.MatchAll(), sc.NeedCols(), 0, t.colstore.NumGroups(), meter, sc.Consume)
	lsp.SetRows(int64(sc.next)).End()
	sp.SetRows(res.Rows).End()
}

// ScoreTable scores every row of t with m inside the engine, charging the
// engine's meter: the SCORE TABLE execution path. The result is finished.
func (e *Engine) ScoreTable(t *Table, m *Model) (*ScoreResult, error) {
	return scoreWhole(t, m, e.meter, e.tracer)
}

// scoreWhole opens, fills and finishes a pass in one call.
func scoreWhole(t *Table, m *Model, meter *sim.Meter, tracer *obs.Tracer) (*ScoreResult, error) {
	res, err := openScore(t, m)
	if err != nil {
		return nil, err
	}
	scoreColumnar(res, t, m, meter, tracer)
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

// ScoreInto fills res, opened on this server for m, by the server's own scan,
// charging the server view's meter and tracer — the form a fleet scoring
// session takes when no shared scan is available. It leaves res unfinished:
// the session's owner ends it.
func (s *Server) ScoreInto(res *ScoreResult, m *Model) {
	scoreColumnar(res, s.table, m, s.meter, s.Tracer())
}

// ScoreColumnar scores every row of the server's table with m on the server
// view's meter and tracer and returns the finished result.
//
// Deprecated: workers is ignored; every scan is one pass. It stays until the
// benchmark stops passing it (ROADMAP item 1).
func (s *Server) ScoreColumnar(m *Model, workers int) (*ScoreResult, error) {
	return scoreWhole(s.table, m, s.meter, s.Tracer())
}
