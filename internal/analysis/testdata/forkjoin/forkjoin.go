// Package forkjoin holds the forkjoin analyzer's testdata: forks that can
// escape the function un-Joined and parent-meter charges between Fork and
// Join are caught; the canonical fork → lane work → join shape passes.
package forkjoin

import (
	"errors"

	"lintdata/obs"
	"lintdata/sim"
)

var errLane = errors.New("lane failed")

func BadUnjoinedOnError(m *sim.Meter, fail bool) error {
	lanes := m.Fork(4) // want `forked lane meters "lanes" is not Joined back on every path`
	if fail {
		return errLane // leaks the barrier: lane work is lost
	}
	m.Join(lanes)
	return nil
}

func BadParentCharge(m *sim.Meter) {
	lanes := m.Fork(2)
	m.Charge(0, 1, 1) // want `parent "m" is charged between Fork and Join`
	m.Join(lanes)
}

func BadParentAdvance(m *sim.Meter) {
	lanes := m.Fork(2)
	m.Advance(10) // want `parent "m" is charged between Fork and Join`
	m.Join(lanes)
}

func BadParentChargeBeforeSerialJoin(m *sim.Meter) {
	segs := m.Fork(2)
	m.Charge(0, 1, 1) // want `parent "m" is charged between Fork and Join`
	m.JoinSerial(segs)
}

func OkForkJoinSerial(m *sim.Meter) {
	segs := m.Fork(2)
	for i, seg := range segs {
		seg.Charge(0, 1, int64(i))
	}
	m.JoinSerial(segs) // a serial join releases the fork like Join does
	m.Charge(0, 1, 1)
}

func BadTracerRecord(m *sim.Meter, tr *obs.Tracer) {
	lanes := m.Fork(2)
	ltrs := tr.ForkLanes(lanes)
	sp := tr.Start("batch", "oops") // want `parent "tr" is recorded to between Fork and Join`
	sp.End()
	m.Join(lanes)
	tr.JoinLanes(ltrs)
}

func OkForkJoin(m *sim.Meter, tr *obs.Tracer) {
	lanes := m.Fork(2)
	ltrs := tr.ForkLanes(lanes)
	for i, lane := range lanes {
		lane.Charge(0, 1, int64(i)) // lane charges are the point of the fork
		lsp := ltrs[i].Start("lane", "lane")
		lsp.End()
	}
	m.Join(lanes)
	tr.JoinLanes(ltrs)
	m.Charge(0, 1, 1) // post-barrier serial work on the parent is fine
	sp := tr.Start("merge", "shard-merge")
	sp.End()
}
