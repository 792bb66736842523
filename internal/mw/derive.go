package mw

import (
	"slices"
	"sync/atomic"

	"repro/internal/cc"
	"repro/internal/predicate"
)

// This file lets a batch count fewer rows. Every row of a split node lands in
// exactly one of its children, so once all but one child are counted the last
// one's table is its parent's less its siblings', cell by cell (cc.Table.Derive).
// The middleware spots such a split on its own, from the requests' ParentID,
// Path and Rows: CloseNode holds a parent's table while a queued request names
// the parent, and a batch that holds all of its children skips the counting
// of the one with the most bumps, which after the pass takes over the
// parent's table less its siblings'.
//
// The model still describes counting: the kernel charges a derived node's
// bumps and folds as if it had counted them (cc.Cells gives the fold count), so
// no clock, counter or trace can tell a derived table from a counted one. That
// restricts derivation to batches whose tables' sizes no decision reads
// mid-scan: batches whose budget cannot police (runScan's segmentable rule),
// so nothing is shed or reclaimed by a table's size before settle fills it.
// Everywhere else, a shared fleet scan included, every node is counted.

// For tests: deriveOff counts every node, and derivedNodes (by the source the
// batch read) and derivedRows count, process-wide, the nodes derived instead
// of counted and their rows.
var (
	deriveOff    bool
	derivedNodes [srcServer + 1]atomic.Int64
	derivedRows  atomic.Int64
)

// hold keeps a closing node's result while a queued request names the node as
// its parent, and recycles its table otherwise. The held table is outside the
// model: CloseNode has released its memory charge as ever.
func (m *Middleware) hold(res *Result) {
	if !m.closed && slices.ContainsFunc(m.queue, func(q *Request) bool { return q.ParentID == res.Req.NodeID }) {
		m.held[res.Req.NodeID] = res
		return
	}
	m.recycleTables(res.CC)
}

// served notes a child of parent served. A batch derives a child only with
// all of its siblings, so once one is served without the parent's table being
// taken over, no later batch can use the table: it goes back to the middleware.
func (m *Middleware) served(parent int) {
	if h, ok := m.held[parent]; ok {
		delete(m.held, parent)
		m.recycleTables(h.CC)
	}
}

// planDerived marks the live nodes of a batch that cannot police whose tables
// settle derives instead of counting: per held parent whose live
// children are disjoint one-condition extensions of its path on one attribute
// and hold all of its rows between them — so no other child is left — the child
// with the most bumps (rows × counted attributes; ties to the lower NodeID), if
// the parent and every sibling count each of its attributes but the split's.
func (r *batchRun) planDerived() {
	m := r.m
	if deriveOff || len(m.held) == 0 {
		return
	}
	ls := m.scratch[0]
	for i, w := range r.live {
		h, ok := m.held[w.req.ParentID]
		if !ok || r.groupLedBefore(i) {
			continue
		}
		ls.group = ls.group[:0]
		var rows int64
		for j := i; j < len(r.live); j++ {
			if req := r.live[j].req; req.ParentID == w.req.ParentID {
				ls.group = append(ls.group, int32(j))
				rows += req.Rows
			}
		}
		if rows != h.CC.Rows() {
			continue
		}
		if d, ok := r.derivable(h.Req, ls.group); ok {
			r.live[d].from = h.CC
		}
	}
}

// groupLedBefore reports whether a live request before index i shares live
// request i's parent.
func (r *batchRun) groupLedBefore(i int) bool {
	for _, o := range r.live[:i] {
		if o.req.ParentID == r.live[i].req.ParentID {
			return true
		}
	}
	return false
}

// derivable checks that the live children group of parent split it on one
// attribute into disjoint parts, and returns the index of the child to derive.
func (r *batchRun) derivable(parent *Request, group []int32) (int, bool) {
	n := len(parent.Path)
	split, best := -1, -1
	for k, j := range group {
		w := r.live[j]
		if len(w.req.Path) != n+1 || !slices.Equal(w.req.Path[:n], parent.Path) {
			return 0, false
		}
		c := w.req.Path[n]
		if k == 0 {
			split = c.Attr
		} else if c.Attr != split {
			return 0, false
		}
		for _, o := range group[:k] {
			if !c.Excludes(r.live[o].req.Path[n]) {
				return 0, false
			}
		}
		if best < 0 || bumps(w) > bumps(r.live[best]) ||
			bumps(w) == bumps(r.live[best]) && w.req.NodeID < r.live[best].req.NodeID {
			best = int(j)
		}
	}
	classIdx := r.m.schema.ClassIndex()
	for _, a := range r.live[best].attrs {
		if a != classIdx && !slices.Contains(parent.Attrs, a) {
			return 0, false
		}
		if a == split {
			continue
		}
		for _, j := range group {
			if int(j) != best && !slices.Contains(r.live[j].attrs, a) {
				return 0, false
			}
		}
	}
	return best, true
}

// bumps is the histogram bumps counting w's table takes.
func bumps(w *ccWork) int64 { return w.req.Rows * int64(len(w.attrs)) }

// fillDerived derives the tables planDerived marked, after the pass: each
// parent's held table becomes its marked child's, less its siblings' counted
// tables (ccs, index-aligned with r.live), and the child's empty one goes back.
func (r *batchRun) fillDerived(ccs []*cc.Table) {
	m := r.m
	ls := m.scratch[0]
	for i, w := range r.live {
		if w.from == nil {
			continue
		}
		for j, o := range r.live {
			if j != i && o.req.ParentID == w.req.ParentID {
				ls.sibs = append(ls.sibs, ccs[j])
			}
		}
		split := w.req.Path[len(w.req.Path)-1]
		w.from.Derive(ls.sibs, w.attrs, split.Attr, split.Val, split.Op == predicate.Eq)
		clear(ls.sibs)
		ls.sibs = ls.sibs[:0]
		m.recycleTables(ccs[i])
		ccs[i] = w.from
		delete(m.held, w.req.ParentID)
		derivedNodes[r.b.kind].Add(1)
		derivedRows.Add(w.req.Rows)
	}
}
