// Package spanend holds the spanend analyzer's testdata: spans leaked on
// error paths, on a fallback return or discarded outright are caught;
// deferred ends, all-path ends, in-chain ends and ownership transfers pass.
package spanend

import (
	"errors"

	"lintdata/obs"
	"lintdata/sim"
)

var errScan = errors.New("scan failed")

func BadErrorPath(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("scan", "scan") // want `obs span "sp" is not Ended on every path`
	if fail {
		return errScan // leaks the span
	}
	sp.End()
	return nil
}

func BadDiscarded(tr *obs.Tracer) {
	tr.Start("scan", "orphan") // want `obs span is discarded without being Ended`
}

func BadNeverEnded(tr *obs.Tracer, rows int64) int64 {
	sp := tr.Start("merge", "merge") // want `obs span "sp" is not Ended on every path`
	sp.SetRows(rows)
	return rows
}

func OkDefer(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("batch", "batch")
	defer sp.End()
	if fail {
		return errScan
	}
	return nil
}

func OkAllPaths(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("scan", "scan")
	if fail {
		sp.End()
		return errScan
	}
	sp.SetRows(1).End()
	return nil
}

func OkChained(tr *obs.Tracer) {
	tr.Start("stage", "stage-memory").SetRows(2).End()
}

func OkDeferredClosure(tr *obs.Tracer, rows int64) {
	sp := tr.Start("aux", "copy-subset")
	defer func() { sp.SetRows(rows).End() }()
}

type cursor struct{ sp *obs.Span }

func OkOwnershipTransfer(tr *obs.Tracer) *cursor {
	// The span moves into the cursor; whoever closes the cursor ends it.
	return &cursor{sp: tr.Start("cursor", "server-scan")}
}

// The batch scan's shape: the span opened before the scan leaks when the scan
// errors (the first leak the suite reconstructed from the middleware).

var errScanFailed = errors.New("scan failed")

func scanBatch(fail bool) (int64, error) {
	if fail {
		return 0, errScanFailed
	}
	return 128, nil
}

func BadScanErrorPath(tr *obs.Tracer, fail bool) (int64, error) {
	ssp := tr.Start("scan", "batch-scan") // want `obs span "ssp" is not Ended on every path`
	rows, scanErr := scanBatch(fail)
	if scanErr != nil {
		return 0, scanErr // leaks the span
	}
	ssp.SetRows(rows).End()
	return rows, nil
}

func OkScanErrorPath(tr *obs.Tracer, fail bool) (int64, error) {
	ssp := tr.Start("scan", "batch-scan")
	rows, scanErr := scanBatch(fail)
	if scanErr != nil {
		ssp.End()
		return 0, scanErr
	}
	ssp.SetRows(rows).End()
	return rows, nil
}

// A planning span that leaks on a fallback return, which is not an error.

func BadFallbackReturn(tr *obs.Tracer, haveStats bool) []int {
	sp := tr.Start("plan", "weighted-split") // want `obs span "sp" is not Ended on every path`
	if !haveStats {
		return nil // the fallback path leaks the span
	}
	bounds := []int{0, 1}
	sp.SetRows(int64(len(bounds))).End()
	return bounds
}

func OkFallbackReturn(tr *obs.Tracer, haveStats bool) []int {
	sp := tr.Start("plan", "weighted-split")
	if !haveStats {
		sp.End()
		return nil
	}
	bounds := []int{0, 1}
	sp.SetRows(int64(len(bounds))).End()
	return bounds
}

// A span's counter deltas are its end-boundary snapshot: a span leaked on an
// error path after the meter was charged leaves its window half open, and
// the profiler folds its costs into the parent.

var errBudget = errors.New("budget exhausted")

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
