// Package pr3scan reconstructs the code shape PR 3 fixed by hand in
// internal/mw: the batch scan span that leaked when the scan errored
// (spanend). The Fixed variant is the post-PR 3 shape and must stay clean.
package pr3scan

import (
	"errors"

	"lintdata/obs"
)

var errScanFailed = errors.New("scan failed")

func scanBatch(fail bool) (int64, error) {
	if fail {
		return 0, errScanFailed
	}
	return 128, nil
}

// LeakyScanStep is the pre-PR 3 shape of mw's batch scan: the span opened
// before the scan never reaches End when the scan errors.
func LeakyScanStep(tr *obs.Tracer, fail bool) (int64, error) {
	ssp := tr.Start("scan", "batch-scan") // want `obs span "ssp" is not Ended on every path`
	rows, scanErr := scanBatch(fail)
	if scanErr != nil {
		return 0, scanErr // the PR 3 bug: span leaks on the error return
	}
	ssp.SetRows(rows).End()
	return rows, nil
}

// FixedScanStep is the post-PR 3 shape: End on the error path too.
func FixedScanStep(tr *obs.Tracer, fail bool) (int64, error) {
	ssp := tr.Start("scan", "batch-scan")
	rows, scanErr := scanBatch(fail)
	if scanErr != nil {
		ssp.End()
		return 0, scanErr
	}
	ssp.SetRows(rows).End()
	return rows, nil
}
