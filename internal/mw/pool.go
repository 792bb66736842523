package mw

import (
	"repro/internal/cc"
	"repro/internal/engine"
	"repro/internal/storage"
)

// This file is the storage a build churns through — counts tables, staging tee
// builders and the code vectors their groups are sealed into, each lane's scan
// scratch — kept by the middleware from batch to batch. None of it is modeled,
// so recycling moves no tree, trace or charge. It changes hands only where one
// goroutine runs (between batches, when a batch's shards are made, after they
// merge) or within one lane (its spares and scratch).

// laneScratch is what lane part of every batch reuses: the spare code vectors
// its tees draw on, and its kernel's consumer with the scan state the engine
// keeps in it (buckets, compiled tries, selection vectors).
type laneScratch struct {
	spares storage.Spares
	cons   colConsumer
	scan   engine.ScanConsumer
}

// lane returns lane part's scratch, making it on first use.
func (m *Middleware) lane(part int) *laneScratch {
	for len(m.lanes) <= part {
		m.lanes = append(m.lanes, new(laneScratch))
	}
	return m.lanes[part]
}

// newTable returns an empty counts table for the attribute set attrs,
// recycled when the middleware has one.
func (m *Middleware) newTable(attrs []int) *cc.Table {
	var t *cc.Table
	if n := len(m.tables); n > 0 {
		t, m.tables = m.tables[n-1], m.tables[:n-1]
	} else {
		t = new(cc.Table)
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
// lanes (the batch that staged them made at least one): the lanes of a split
// batch each capture about a share.
func (m *Middleware) recycleGroups(groups []*storage.ColGroup) {
	for i, g := range groups {
		m.lanes[i%len(m.lanes)].spares.Recycle(g)
	}
}
