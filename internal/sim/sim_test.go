package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestChargeAdvancesClockAndCounter(t *testing.T) {
	m := NewDefaultMeter()
	m.Charge(CtrServerScans, 1000, 3)
	if got := m.Count(CtrServerScans); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := m.Now(); got != 3*time.Microsecond {
		t.Errorf("Now = %v, want 3µs", got)
	}
}

func TestChargeZeroCost(t *testing.T) {
	m := NewDefaultMeter()
	m.Charge(CtrBatches, 0, 5)
	if m.Now() != 0 {
		t.Errorf("zero-cost charge advanced the clock to %v", m.Now())
	}
	if m.Count(CtrBatches) != 5 {
		t.Errorf("counter = %d, want 5", m.Count(CtrBatches))
	}
}

func TestAdvance(t *testing.T) {
	m := NewDefaultMeter()
	m.Advance(1500)
	if m.Now() != 1500*time.Nanosecond {
		t.Errorf("Now = %v, want 1.5µs", m.Now())
	}
}

func TestNegativePanics(t *testing.T) {
	m := NewDefaultMeter()
	for name, fn := range map[string]func(){
		"advance": func() { m.Advance(-1) },
		"charge":  func() { m.Charge(CtrServerRows, 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on negative input", name)
				}
			}()
			fn()
		}()
	}
}

func TestReset(t *testing.T) {
	m := NewDefaultMeter()
	m.Charge(CtrServerRows, 100, 10)
	m.Reset()
	if m.Now() != 0 || m.Count(CtrServerRows) != 0 {
		t.Errorf("Reset left state: now=%v count=%d", m.Now(), m.Count(CtrServerRows))
	}
	if m.Costs() != DefaultCosts() {
		t.Error("Reset clobbered the cost model")
	}
}

func TestSnapshotDeltas(t *testing.T) {
	m := NewDefaultMeter()
	m.Charge(CtrFileRowsRead, 1000, 4)
	s := m.Snapshot()
	m.Charge(CtrFileRowsRead, 1000, 6)
	if d := m.CountSince(s, CtrFileRowsRead); d != 6 {
		t.Errorf("CountSince = %d, want 6", d)
	}
	if d := m.Since(s); d != 6*time.Microsecond {
		t.Errorf("Since = %v, want 6µs", d)
	}
	// The snapshot itself is immutable.
	if s.Counts[CtrFileRowsRead] != 4 {
		t.Errorf("snapshot mutated: %d", s.Counts[CtrFileRowsRead])
	}
}

func TestCounterNamesUniqueAndNonEmpty(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Errorf("counter %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if got := Counter(999).String(); got != "counter(999)" {
		t.Errorf("out-of-range counter name = %q", got)
	}
}

func TestStringListsNonZeroCountersSorted(t *testing.T) {
	m := NewDefaultMeter()
	m.Charge(CtrServerScans, 0, 2)
	m.Charge(CtrCCUpdates, 0, 7)
	s := m.String()
	if !strings.Contains(s, "server_scans=2") || !strings.Contains(s, "cc_updates=7") {
		t.Errorf("String() missing counters: %s", s)
	}
	if strings.Contains(s, "rows_transmitted") {
		t.Errorf("String() lists zero counter: %s", s)
	}
	if strings.Index(s, "cc_updates") > strings.Index(s, "server_scans") {
		t.Errorf("String() not sorted by name: %s", s)
	}
}

func TestDefaultCostOrderings(t *testing.T) {
	c := DefaultCosts()
	// The orderings the paper's results depend on (see package comment).
	if !(c.MemRowRead < c.FileRowRead) {
		t.Error("memory read must be cheaper than file read")
	}
	if !(c.FileRowRead < c.RowTransmit+c.ServerRowCPU) {
		t.Error("file read must be cheaper than fetching a row through a server cursor")
	}
	if !(c.ServerRowCPU < c.FileRowRead) {
		t.Error("server-side row evaluation must be cheaper than a middleware file read (the Figure 8a crossover)")
	}
	if !(c.TIDFetch > c.ServerPageIO/4) {
		t.Error("TID fetch must be random-I/O expensive")
	}
	if !(c.QueryStartup > 100*c.ServerRowCPU) {
		t.Error("per-statement startup must dominate per-row costs on small inputs")
	}
}

// TestClockMonotoneProperty: any sequence of non-negative charges leaves the
// clock equal to the sum of cost*count and never decreases it.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		m := NewDefaultMeter()
		var want int64
		for i, s := range steps {
			cost := int64(s % 17)
			n := int64(s % 5)
			c := Counter(i % int(numCounters))
			before := m.Now()
			m.Charge(c, cost, n)
			want += cost * n
			if m.Now() < before {
				return false
			}
		}
		return m.Now() == time.Duration(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestJoinSerialEqualsDirectCharges: work split over forked meters and joined
// serially leaves the parent exactly where charging it directly would have.
func TestJoinSerialEqualsDirectCharges(t *testing.T) {
	direct, split := NewDefaultMeter(), NewDefaultMeter()
	direct.Charge(CtrBatches, 500, 1)
	split.Charge(CtrBatches, 500, 1)
	direct.Charge(CtrServerRows, 100, 35)
	direct.Charge(CtrCCUpdates, 60, 5)

	segs := split.Fork(3)
	segs[0].Charge(CtrServerRows, 100, 10)
	segs[1].Charge(CtrServerRows, 100, 25)
	segs[2].Charge(CtrCCUpdates, 60, 5)
	split.JoinSerial(segs)

	if split.Now() != direct.Now() || split.CounterVec() != direct.CounterVec() {
		t.Errorf("serial join: clock %v counters %v, direct charges: %v %v",
			split.Now(), split.CounterVec(), direct.Now(), direct.CounterVec())
	}
}

func TestForkLanesShareCosts(t *testing.T) {
	m := NewDefaultMeter()
	for i, l := range m.Fork(2) {
		if l.Costs() != m.Costs() {
			t.Errorf("fork %d has different costs", i)
		}
		if l.Now() != 0 || l.Count(CtrBatches) != 0 {
			t.Errorf("fork %d not zeroed", i)
		}
	}
}

func TestJoinEmptyLanesIsNoOp(t *testing.T) {
	m := NewDefaultMeter()
	m.Charge(CtrBatches, 1000, 2)
	before := m.Snapshot()
	m.JoinSerial(m.Fork(4))
	if m.Since(before) != 0 || m.CountSince(before, CtrBatches) != 0 {
		t.Error("joining idle forks changed the meter")
	}
}
