// Package sim is a structural stub of the real internal/sim: the analyzers
// match the Meter surface by package base name and method name, so testdata
// exercises the same shapes the repository does.
package sim

type Counter int

// Meter mirrors the virtual-clock meter's fork/join and charge surface.
type Meter struct {
	now    int64
	counts [4]int64
}

func NewMeter() *Meter { return &Meter{} }

func (m *Meter) Charge(c Counter, unitCost, n int64) {
	m.counts[c] += n
	m.now += unitCost * n
}

func (m *Meter) Advance(d int64) { m.now += d }

func (m *Meter) Count(c Counter) int64 { return m.counts[c] }

func (m *Meter) Fork(n int) []*Meter {
	lanes := make([]*Meter, n)
	for i := range lanes {
		lanes[i] = NewMeter()
	}
	return lanes
}

func (m *Meter) Join(lanes []*Meter) {
	var max int64
	for _, l := range lanes {
		if l.now > max {
			max = l.now
		}
	}
	m.now += max
}

func (m *Meter) JoinSerial(lanes []*Meter) {
	for _, l := range lanes {
		m.now += l.now
	}
}
