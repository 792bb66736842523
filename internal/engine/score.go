package engine

import (
	"context"
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
// groupTrie.Compile, zone-map verdicts included, and each row descends it
// once (groupTrie.descend) to its decision node: the reached leaf, or the
// multiway node none of whose arms holds. The inner loop compares uint16
// codes — no value materialization, no dictionary lookups. A pass (ScorePass)
// is a ScanConsumer on the counting kernel's own block loop, ScanGroups — the
// server's scan alone, or a fleet cohort's shared one — so scoring pays the
// identical page/eval/transmit shape as building, plus the score-specific
// charges: ScoreRowEval per row, and ModelNodeProbe per node on the path to
// the decision node (its depth + 1).

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
// the same whether its pass scans alone or rides a shared scan, so shared
// and solo scoring produce identical predictions.
type ScoreConsumer struct {
	model  *Model
	meter  *sim.Meter
	costs  sim.Costs
	gt     groupTrie // the model's path trie, compiled against the current group
	res    *ScoreResult
	next   int   // the row of res the next scored row lands in: the rows scored
	probes int64 // the model node probes charged so far
}

// Consumer returns the consumer that fills r from a scan of the whole table —
// the server's own, or a fleet session's attachment to a shared one —
// charging all scoring costs to meter.
func (r *ScoreResult) Consumer(m *Model, meter *sim.Meter) *ScoreConsumer {
	return &ScoreConsumer{model: m, meter: meter, costs: meter.Costs(), res: r}
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
	c.probes += probes
	c.res.publish(end)
	c.meter.Charge(sim.CtrScoreBlocks, 0, 1)
	c.meter.Charge(sim.CtrScoreRows, c.costs.ScoreRowEval, int64(len(blk.Sel)))
	c.meter.Charge(sim.CtrModelProbes, c.costs.ModelNodeProbe, probes)
	return true
}

// OpenScore checks that the server's table can be scored with m — so a
// statement that cannot run fails before it answers anything — and returns
// the pass's result, allocated at the table's row count and empty, for
// ScoreInto or BeginScore to fill. The table must not change before the scan
// ran.
func (s *Server) OpenScore(m *Model) (*ScoreResult, error) {
	t := s.table
	if attrs := m.Attrs(); len(attrs) > 0 && attrs[len(attrs)-1] >= len(t.Cols) {
		return nil, fmt.Errorf("engine: model %q splits on column %d; table %q has %d",
			m.Name, attrs[len(attrs)-1], t.Name, len(t.Cols))
	}
	return newScoreResult(m, int(t.colstore.NumRows())), nil
}

// ScorePass is one scoring pass over a server's table: its score span and its
// consumer, which the server's own scan (ScoreInto) or a fleet cohort's
// shared one (ScanGroups) drives. Server.BeginScore opens it; End or Abort
// closes it.
type ScorePass struct {
	cons   ScanConsumer
	score  *ScoreConsumer
	sp     *obs.Span
	shared bool
}

// BeginScore opens a pass filling res, opened on this server for m: the score
// span, and a match-all consumer charging every scoring cost to the server
// view's meter. A shared pass rides a cohort's scan, and its span says so.
func (s *Server) BeginScore(res *ScoreResult, m *Model, shared bool) *ScorePass {
	sp := s.Tracer().Start(obs.CatScore, "score").
		AttrStr("model", m.Name).
		Attr("model_nodes", int64(len(m.Nodes)))
	if shared {
		sp.Attr("shared", 1)
	}
	p := &ScorePass{score: res.Consumer(m, s.meter), sp: sp, shared: shared}
	p.cons = ScanConsumer{Filter: predicate.MatchAll(), Meter: s.meter, Fn: p.score.Consume}
	return p
}

// Consumer returns the pass's attachment to the scan that drives it.
func (p *ScorePass) Consumer() *ScanConsumer { return &p.cons }

// NeedCols returns the columns the pass's scan must read (ScoreConsumer.NeedCols).
func (p *ScorePass) NeedCols() []int { return p.score.NeedCols() }

// End closes the pass after its scan ran: the meter absorbs ioNS, a cohort's
// shared I/O wait, and the span records the rows scored and, on a shared
// pass, the model node probes.
func (p *ScorePass) End(ioNS int64) {
	if ioNS > 0 {
		p.cons.Meter.Advance(ioNS)
	}
	p.sp.SetRows(int64(p.score.next))
	if p.shared {
		p.sp.Attr("model_node_probes", p.score.probes)
	}
	p.sp.End()
	p.sp = nil
}

// Abort ends the span of a pass whose scan will not run to its end; for error
// paths. A no-op on an ended pass.
func (p *ScorePass) Abort() {
	p.sp.End()
	p.sp = nil
}

// ScoreInto fills res, opened on this server for m, by the server's own scan,
// charging the server view's meter and tracer — the form a fleet scoring
// session takes when no shared scan is available. It leaves res unfinished:
// the session's owner ends it. The scan checks ctx once per block; a
// cancelled pass ends its span and returns ctx.Err() (the groups are
// resident, so nothing else fails).
func (s *Server) ScoreInto(ctx context.Context, res *ScoreResult, m *Model) error {
	p := s.BeginScore(res, m, false)
	if err := ScanGroups(ctx, s.ColGroups(p.NeedCols()), []*ScanConsumer{p.Consumer()}, 0, s.NumColGroups(), s.meter); err != nil {
		p.Abort()
		return err
	}
	p.End(0)
	return nil
}

// ScoreTable scores every row of t with m inside the engine, charging the
// engine's meter: the SCORE TABLE execution path. The result is finished.
func (e *Engine) ScoreTable(t *Table, m *Model) (*ScoreResult, error) {
	srv := &Server{eng: e, meter: e.meter, table: t}
	res, err := srv.OpenScore(m)
	if err != nil {
		return nil, err
	}
	if err := srv.ScoreInto(context.Background(), res, m); err != nil {
		return nil, err
	}
	res.Finish(nil)
	return res, nil
}

// ScoreColumnar scores every row of the server's table with m on the server
// view's meter and tracer and returns the finished result.
//
// Deprecated: workers is ignored; every scan is one pass. It stays until the
// benchmark stops passing it (ROADMAP item 1).
func (s *Server) ScoreColumnar(m *Model, workers int) (*ScoreResult, error) {
	return s.eng.view(s.meter, s.Tracer()).ScoreTable(s.table, m)
}
