package sim

import (
	"fmt"
	"sort"
	"time"
)

// Multi-clock harness for multi-tenant simulation. Each concurrent session
// owns a private Meter (its virtual clock), pre-advanced to the session's
// arrival offset; a deterministic coordinator repeatedly picks the session
// whose clock is furthest behind and lets it run one step. Because every
// clock is a pure function of the work charged to it and selection ties
// break on session id, the whole fleet simulates identically regardless of
// host scheduling — the same guarantee Fork/Join gives worker lanes, lifted
// to whole sessions.

// Clocks tracks the per-session virtual clocks of a fleet.
type Clocks struct {
	costs Costs
	ids   []int // sorted; iteration order for determinism
	m     map[int]*Meter
}

// NewClocks returns an empty harness; every clock it opens shares one cost
// model.
func NewClocks(costs Costs) *Clocks {
	return &Clocks{costs: costs, m: make(map[int]*Meter)}
}

// Open creates the clock for a new session, pre-advanced to its arrival
// offset, and returns its meter. Session ids must be unique.
func (c *Clocks) Open(id int, arrivalNS int64) *Meter {
	if _, ok := c.m[id]; ok {
		panic(fmt.Sprintf("sim: clock %d already open", id))
	}
	m := NewMeter(c.costs)
	m.Advance(arrivalNS)
	c.m[id] = m
	i := sort.SearchInts(c.ids, id)
	c.ids = append(c.ids, 0)
	copy(c.ids[i+1:], c.ids[i:])
	c.ids[i] = id
	return m
}

// Close removes a finished session's clock from the selection set.
func (c *Clocks) Close(id int) {
	if _, ok := c.m[id]; !ok {
		panic(fmt.Sprintf("sim: clock %d not open", id))
	}
	delete(c.m, id)
	i := sort.SearchInts(c.ids, id)
	c.ids = append(c.ids[:i], c.ids[i+1:]...)
}

// Next returns the open session whose clock is furthest behind — the one
// that runs next under fair virtual-time scheduling — restricted to sessions
// the eligible predicate accepts (nil means all). Ties break on the lower
// id. The second result is false when no session is eligible.
func (c *Clocks) Next(eligible func(id int) bool) (int, bool) {
	best, found := 0, false
	var bestNow time.Duration
	for _, id := range c.ids {
		if eligible != nil && !eligible(id) {
			continue
		}
		now := c.m[id].Now()
		if !found || now < bestNow || (now == bestNow && id < best) {
			best, bestNow, found = id, now, true
		}
	}
	return best, found
}

// Arrivals returns n session arrival offsets in virtual nanoseconds:
// non-decreasing, gap i drawn uniformly from [0, 2*meanGapNS) by a seeded
// splitmix64 stream. Pure integer arithmetic, so the schedule is identical
// on every platform; the first session arrives after one gap, not at zero,
// so even session 0's start depends on the seed.
func Arrivals(seed int64, n int, meanGapNS int64) []int64 {
	if meanGapNS < 0 {
		panic("sim: negative arrival gap")
	}
	out := make([]int64, n)
	state := uint64(seed)
	var t int64
	for i := range out {
		// splitmix64 step (Steele et al.); deterministic and stdlib-free.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if meanGapNS > 0 {
			t += int64(z % uint64(2*meanGapNS))
		}
		out[i] = t
	}
	return out
}
