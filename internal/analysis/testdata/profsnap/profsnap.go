// Package profsnap holds the profiler's span-boundary counter-snapshot
// pairing cases. The post-hoc profiler only sees a span's counter deltas if
// the end-boundary snapshot is actually taken — a span leaked on an error
// path leaves a half-open window and its costs silently fold into the
// parent. Rendering the resulting delta maps must not leak map iteration
// order into report bytes.
package profsnap

import (
	"errors"
	"sort"

	"lintdata/obs"
	"lintdata/sim"
)

var errBudget = errors.New("budget exhausted")

// BadSnapshotLeak captures the start-boundary counter snapshot but leaks the
// span on the error path: the end snapshot is never taken and the window
// stays half-open.
func BadSnapshotLeak(tr *obs.Tracer, m *sim.Meter, fail bool) error {
	sp := tr.Start("scan", "scan") // want `obs span "sp" is not Ended on every path`
	before := m.Count(0)
	m.Charge(0, 1, 10)
	if fail {
		return errBudget
	}
	sp.Attr("delta", m.Count(0)-before)
	sp.End()
	return nil
}

// BadDeltaMapOrder renders a counter-delta map by ranging over it directly:
// the report bytes would depend on map iteration order.
func BadDeltaMapOrder(deltas map[string]int64, emit func(string, int64)) {
	for name, v := range deltas { // want `map iteration order is nondeterministic`
		emit(name, v)
	}
}

// OkSnapshotPairing pairs the boundary snapshots with a deferred End: the
// end-side capture runs on every path, error or not.
func OkSnapshotPairing(tr *obs.Tracer, m *sim.Meter, fail bool) error {
	sp := tr.Start("scan", "scan")
	defer sp.End()
	before := m.Count(0)
	m.Charge(0, 1, 10)
	if fail {
		return errBudget
	}
	sp.Attr("delta", m.Count(0)-before)
	return nil
}

// OkDeltaReport collects the delta keys and sorts before rendering, so the
// report is byte-deterministic.
func OkDeltaReport(deltas map[string]int64, emit func(string, int64)) {
	keys := make([]string, 0, len(deltas))
	for k := range deltas {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(k, deltas[k])
	}
}
