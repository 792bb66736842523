package mw

import (
	"slices"
	"sync"

	"repro/internal/cc"
	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/storage"
)

// This file is the storage a build churns through — counts tables, staging tee
// builders and the code vectors their groups are sealed into, each segment's
// scan scratch, the row tags of the table and of every stage — kept from batch to
// batch. None of it is modeled, so recycling moves no tree, trace or charge.
// Counts tables, scan scratch and tag states (with the stage tag vectors freed
// into them) hold nothing of the build they served once it is over, so they
// outlive it: Close hands them to one process-wide pool, where the next middleware — of
// any schema, in any session — draws its own. Tee builders and code vectors
// stay with their middleware: they are sized by its stages, and pooling them
// would keep a finished build's staged data alive. Storage changes hands only
// where one goroutine runs (between batches, when a batch's shards are made,
// after its pass) or within one segment (its scratch).

// scanScratch is what segment j of every batch's pass reuses — segment 0 is
// the pass itself when it does not split: its kernel's consumer with the scan
// state the engine keeps in it (buckets, compiled tries, selection vectors)
// and its staging-file read buffer. Scratch 0's, drawn when the middleware is
// made, also keeps what derive.go needs: the middleware's held tables, and for planning and filling
// a batch's derived tables a split's children and a derived table's siblings,
// emptied after each use.
type scanScratch struct {
	cons  colConsumer
	scan  engine.ScanConsumer
	buf   groupBuf
	held  map[int]*Result
	group []int32
	sibs  []*cc.Table
}

// release drops every reference scratch holds into the build it served —
// plan, requests, paths, filter, meter, shard, and the groups its trie and
// read buffer last saw — keeping the storage it grew.
func (ls *scanScratch) release() {
	c := &ls.cons
	c.drop()
	c.plan, c.live, c.meter, c.sh = nil, nil, nil, nil
	clear(c.dicts[:cap(c.dicts)])
	c.dicts, c.classDict, c.classCodes = c.dicts[:0], nil, nil
	ls.scan.Release()
	ls.buf.g = storage.ColGroup{}
	clear(ls.held)
}

// tagState is what a middleware knows of which node each row of its server
// table belongs to (engine.ScanConsumer.Tags): a tag per row — the path of the
// live request a tagged scan last bucketed it into through a test — the
// registry of tags, and the current batch's classes under them. Every stage
// keeps a tag per row of its own, in the same registry (stageData.tags,
// stageFile.tags): a tee copies each row's tag forward as it keeps the row,
// into a vector the state hands out (take) and takes back when the stage is
// freed, the tee dropped or its writer aborted (recycle). A tag is a fact
// about its row, so no shed, requeue, fallback or failed scan can make one
// wrong. The tags cost 4 bytes a row, unmodeled like the rows they index.
type tagState struct {
	rows    []uint32         // per table row: its tag (tableRows); rows appended since the draw are at the root
	byNode  map[int]uint32   // NodeID -> tag, for every request a tagged batch counted
	paths   []predicate.Conj // per tag: its path; tag 0 is the root's, the empty path
	conjs   []uint32         // per live request of the batch: its tag
	classes engine.TagClasses
	spare   [][]uint32 // stage tag vectors no stage or tee holds, empty
}

// bytes is what the state's storage weighs in the pool.
func (ts *tagState) bytes() int64 {
	n := cap(ts.rows) + cap(ts.conjs)
	for _, v := range ts.spare {
		n += cap(v)
	}
	return int64(n) * 4
}

// take returns an empty tag vector with room for a tee's expected n rows: the
// smallest spare that holds them, else a new one. A spare too small for this
// tee stays for a smaller one, so a run of builds of one shape soon draws
// every vector from the spares.
func (ts *tagState) take(n int) []uint32 {
	best := -1
	for i, v := range ts.spare {
		if cap(v) >= n && (best < 0 || cap(v) < cap(ts.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]uint32, 0, n)
	}
	v, last := ts.spare[best], len(ts.spare)-1
	ts.spare[best], ts.spare[last], ts.spare = ts.spare[last], nil, ts.spare[:last]
	return v
}

// recycle takes back a tag vector no stage or tee holds any more. A vector
// with no storage is let go, so a middleware that never drew its state can
// recycle the nil vectors of stages that have none.
func (ts *tagState) recycle(v []uint32) {
	if cap(v) > 0 {
		ts.spare = append(ts.spare, v[:0])
	}
}

// tagOf returns req's tag, registering it with req's path on first sight.
func (ts *tagState) tagOf(req *Request) uint32 {
	if len(req.Path) == 0 {
		return 0
	}
	t, ok := ts.byNode[req.NodeID]
	if !ok {
		t = uint32(len(ts.paths))
		ts.paths = append(ts.paths, req.Path)
		ts.byNode[req.NodeID] = t
	}
	return t
}

// release drops every node and path the state registered, keeping its storage,
// spare tag vectors included.
func (ts *tagState) release() {
	clear(ts.byNode)
	clear(ts.paths[:cap(ts.paths)])
	ts.rows, ts.paths, ts.conjs = ts.rows[:0], ts.paths[:0], ts.conjs[:0]
	ts.classes.Release()
}

// The pool's bounds: what a large build keeps between batches, not more.
const (
	maxPooledTables   = 4096
	maxPooledScratch  = 64
	maxPooledTagBytes = 16 << 20
)

// pool is the process's free storage, shared by every middleware.
var pool struct {
	sync.Mutex
	tables   []*cc.Table
	scratch  []*scanScratch
	tags     []*tagState
	tagBytes int64
}

// tagState returns the middleware's tags, drawn from the pool on first use
// with no table row yet (tableRows).
func (m *Middleware) tagState() *tagState {
	ts := m.tags
	if ts == nil {
		pool.Lock()
		if n := len(pool.tags); n > 0 {
			ts, pool.tags = pool.tags[n-1], pool.tags[:n-1]
			pool.tagBytes -= ts.bytes()
		}
		pool.Unlock()
		if ts == nil {
			ts = &tagState{byNode: make(map[int]uint32)}
		}
		ts.paths = append(ts.paths, nil)
		m.tags = ts
	}
	return ts
}

// tableRows returns the tags of the table's n rows, those not tagged yet at
// the root. Only a tagged server batch asks for them: a build whose later
// levels all read stages never holds a tag per table row.
func (ts *tagState) tableRows(n int) []uint32 {
	if had := len(ts.rows); n > had {
		ts.rows = slices.Grow(ts.rows, n-had)[:n]
		clear(ts.rows[had:])
	}
	return ts.rows
}

// scratchAt returns segment j's scratch, drawing it from the pool on first
// use.
func (m *Middleware) scratchAt(j int) *scanScratch {
	for len(m.scratch) <= j {
		pool.Lock()
		var ls *scanScratch
		if n := len(pool.scratch); n > 0 {
			ls, pool.scratch = pool.scratch[n-1], pool.scratch[:n-1]
		}
		pool.Unlock()
		if ls == nil {
			ls = &scanScratch{held: make(map[int]*Result)}
		}
		m.scratch = append(m.scratch, ls)
	}
	return m.scratch[j]
}

// newTable returns an empty counts table for the attribute set attrs: one the
// middleware recycled, else one from the pool, else a new one.
func (m *Middleware) newTable(attrs []int) *cc.Table {
	var t *cc.Table
	if n := len(m.tables); n > 0 {
		t, m.tables = m.tables[n-1], m.tables[:n-1]
	} else {
		pool.Lock()
		if n := len(pool.tables); n > 0 {
			t, pool.tables = pool.tables[n-1], pool.tables[:n-1]
		}
		pool.Unlock()
		if t == nil {
			t = new(cc.Table)
		}
	}
	t.Reset(attrs, m.cards, m.schema.Class.Card)
	return t
}

// recycleTables takes back counts tables nothing refers to any more; nil
// entries are skipped.
func (m *Middleware) recycleTables(ts ...*cc.Table) {
	for _, t := range ts {
		if t != nil {
			m.tables = append(m.tables, t)
		}
	}
}

// releaseToPool hands the middleware's free counts tables and its scan scratch,
// released, to the pool (up to its bounds); the middleware keeps neither.
// Tables of nodes still open stay with the client.
func (m *Middleware) releaseToPool() {
	for _, ls := range m.scratch {
		ls.release()
	}
	if m.tags != nil {
		m.tags.release()
	}
	pool.Lock()
	for _, t := range m.tables {
		t.Reset(nil, nil, 0)
		if len(pool.tables) < maxPooledTables {
			pool.tables = append(pool.tables, t)
		}
	}
	for _, ls := range m.scratch {
		if len(pool.scratch) < maxPooledScratch {
			pool.scratch = append(pool.scratch, ls)
		}
	}
	if ts := m.tags; ts != nil && pool.tagBytes+ts.bytes() <= maxPooledTagBytes {
		pool.tags = append(pool.tags, ts)
		pool.tagBytes += ts.bytes()
	}
	pool.Unlock()
	m.tables, m.scratch, m.tags, m.held = nil, nil, nil, nil
}

// teeBuilder returns an idle row-group builder readied for a tee of want rows
// whose code vectors come from spares.
func (m *Middleware) teeBuilder(want int, spares *storage.Spares) *storage.GroupBuilder {
	var b *storage.GroupBuilder
	if n := len(m.builders); n > 0 {
		b, m.builders = m.builders[n-1], m.builders[:n-1]
	} else {
		b = storage.NewGroupBuilder(m.schema.NumCols(), engine.BlockRows, 0)
	}
	b.Reset(want, spares)
	return b
}

// recycleGroups gives a freed memory stage's code vectors back to the spares.
func (m *Middleware) recycleGroups(groups []*storage.ColGroup) {
	for _, g := range groups {
		m.spares.Recycle(g)
	}
}
