// Package closer holds the closer analyzer's testdata: cursors and writers
// leaked on early returns — a staging writer inside a loop included — are
// caught; deferred closes, all-path releases and ownership transfers pass.
package closer

import (
	"errors"

	"lintdata/res"
)

var errMid = errors.New("mid-scan failure")

func BadCursorLeak(fail bool) error {
	cur := res.OpenScan() // want `resource Cursor "cur" is not released`
	if fail {
		return errMid // leaks the cursor
	}
	cur.Close()
	return nil
}

func BadWriterLeak(rows [][]byte) (int, error) {
	w, err := res.Create() // want `resource Writer "w" is not released`
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		w.Write(r)
	}
	return len(rows), nil // never Finished nor Aborted
}

func OkDeferClose(fail bool) error {
	cur := res.OpenScan()
	defer cur.Close()
	if fail {
		return errMid
	}
	return nil
}

func OkFinishOrAbort(rows [][]byte, fail bool) error {
	w, err := res.Create()
	if err != nil {
		return err
	}
	if fail {
		w.Abort()
		return errMid
	}
	for _, r := range rows {
		w.Write(r)
	}
	return w.Finish()
}

func OkAccessorNotTracked(p *res.Pool) int {
	// Shared() hands out a borrowed cursor: no obligation lands here.
	cur := p.Shared()
	n, _ := cur.Next()
	return n
}

type scanState struct{ cur *res.Cursor }

func OkOwnershipTransfer() *scanState {
	// The cursor moves into the state struct; its Close happens elsewhere.
	return &scanState{cur: res.OpenScan()}
}

// The staging shape: a mid-batch failure returns without aborting the writer
// already open for its partition, stranding the file.

var errBadPartition = errors.New("bad partition")

func BadWriterInLoop(parts [][]byte) error {
	for _, part := range parts {
		w, err := res.Create() // want `resource Writer "w" is not released`
		if err != nil {
			return err
		}
		w.Write(part)
		if len(part) == 0 {
			return errBadPartition // w is neither Finished nor Aborted
		}
		if err := w.Finish(); err != nil {
			return err
		}
	}
	return nil
}

func OkWriterInLoop(parts [][]byte) error {
	for _, part := range parts {
		w, err := res.Create()
		if err != nil {
			return err
		}
		w.Write(part)
		if len(part) == 0 {
			w.Abort()
			return errBadPartition
		}
		if err := w.Finish(); err != nil {
			return err
		}
	}
	return nil
}
