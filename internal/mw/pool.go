package mw

import (
	"sync"

	"repro/internal/cc"
	"repro/internal/engine"
	"repro/internal/storage"
)

// This file is the storage a build churns through — counts tables, staging tee
// builders and the code vectors their groups are sealed into, each lane's scan
// scratch — kept from batch to batch. None of it is modeled, so recycling moves
// no tree, trace or charge. Counts tables and scan scratch hold nothing of the
// build they served once it is over, so they outlive it: Close hands them to
// one process-wide pool, where the next middleware — of any schema, in any
// session — draws its own. Tee builders and code vectors stay with their
// middleware: they are sized by its stages, and pooling them would keep a
// finished build's staged data alive. Storage changes hands only where one
// goroutine runs (between batches, when a batch's shards are made, after they
// merge) or within one lane or segment (its spares and scratch).

// laneScratch is what lane or segment index part of every batch reuses: its
// kernel's consumer with the scan state the engine keeps in it (buckets,
// compiled tries, selection vectors), its staging-file read buffer, and the
// weigher that splits its range into segments.
type laneScratch struct {
	cons  colConsumer
	scan  engine.ScanConsumer
	buf   groupBuf
	split engine.Bounder
}

// release drops every reference scratch holds into the build it served —
// plan, requests, paths, filter, lane meter, shard, and the groups its filters
// and read buffer last saw — keeping the storage it grew.
func (ls *laneScratch) release() {
	c := &ls.cons
	c.plan, c.live, c.lane, c.sh = nil, nil, nil, nil
	c.classDict, c.classCodes = nil, nil
	for _, fs := range [][]engine.GroupFilter{c.fileFilters[:cap(c.fileFilters)], c.memFilters[:cap(c.memFilters)]} {
		for i := range fs {
			fs[i].Release()
		}
	}
	ls.scan.Release()
	ls.buf.g = storage.ColGroup{}
}

// The pool's bounds: what a large build keeps between batches, not more.
const (
	maxPooledTables  = 4096
	maxPooledScratch = 64
)

// pool is the process's free storage, shared by every middleware.
var pool struct {
	sync.Mutex
	tables  []*cc.Table
	scratch []*laneScratch
}

// lane returns lane or segment index part's scratch, drawing it from the pool
// on first use.
func (m *Middleware) lane(part int) *laneScratch {
	for len(m.lanes) <= part {
		pool.Lock()
		var ls *laneScratch
		if n := len(pool.scratch); n > 0 {
			ls, pool.scratch = pool.scratch[n-1], pool.scratch[:n-1]
		}
		pool.Unlock()
		if ls == nil {
			ls = new(laneScratch)
		}
		m.lanes = append(m.lanes, ls)
	}
	return m.lanes[part]
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

// releaseToPool hands the middleware's free counts tables and its lane scratch,
// released, to the pool (up to its bounds); the middleware keeps neither.
// Tables of nodes still open stay with the client.
func (m *Middleware) releaseToPool() {
	for _, ls := range m.lanes {
		ls.release()
	}
	pool.Lock()
	for _, t := range m.tables {
		t.Reset(nil, nil, 0)
		if len(pool.tables) < maxPooledTables {
			pool.tables = append(pool.tables, t)
		}
	}
	for _, ls := range m.lanes {
		if len(pool.scratch) < maxPooledScratch {
			pool.scratch = append(pool.scratch, ls)
		}
	}
	pool.Unlock()
	m.tables, m.lanes = nil, nil
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

// recycleGroups gives a freed memory stage's code vectors back, dealt over the
// lanes' spares (the batch that staged them made at least one): the lanes of a
// split batch each capture about a share.
func (m *Middleware) recycleGroups(groups []*storage.ColGroup) {
	for i, g := range groups {
		m.spares[i%len(m.spares)].Recycle(g)
	}
}
