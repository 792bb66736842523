// Package sim is a structural stub of the real internal/sim: the meter
// spanend.BadSnapshotLeak charges between a span's counter snapshots.
package sim

type Counter int

// Meter mirrors the virtual-clock meter's charge surface.
type Meter struct {
	now    int64
	counts [4]int64
}

func (m *Meter) Charge(c Counter, unitCost, n int64) {
	m.counts[c] += n
	m.now += unitCost * n
}

func (m *Meter) Count(c Counter) int64 { return m.counts[c] }
