// Package scorecat holds the in-database scoring shapes that arrived with
// the model catalog: reconstructing a model from its catalog table opens a
// metered scan cursor that must be closed on every path (including the
// malformed-catalog error returns), and the scoring operator's span must end
// even when a row group fails to compile.
package scorecat

import (
	"errors"

	"lintdata/obs"
)

var errCatalog = errors.New("malformed catalog row")

// CatalogScan mirrors the engine's model-catalog cursor: one metered pass
// over the catalog table's rows, released by Close.
type CatalogScan struct{ open bool }

// OpenCatalogScan positions a cursor on the model's catalog table.
func OpenCatalogScan(model string) (*CatalogScan, error) {
	return &CatalogScan{open: true}, nil
}

// Next advances to the next catalog row.
func (s *CatalogScan) Next() bool { return false }

// Decode decodes the current row into a model node.
func (s *CatalogScan) Decode() error { return nil }

// Close releases the cursor.
func (s *CatalogScan) Close() { s.open = false }

// BadCatalogLeak is the model-reconstruction shape done wrong: a decode
// failure mid-scan returns without closing the catalog cursor.
func BadCatalogLeak(model string) error {
	s, err := OpenCatalogScan(model) // want `resource CatalogScan "s" is not released`
	if err != nil {
		return err
	}
	for s.Next() {
		if err := s.Decode(); err != nil {
			return errCatalog // leaks the cursor
		}
	}
	s.Close()
	return nil
}

// BadScoreSpanLeak leaks the scoring span when a row group's code-space
// compile fails.
func BadScoreSpanLeak(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("score", "score-table") // want `obs span "sp" is not Ended on every path`
	if fail {
		return errCatalog
	}
	sp.End()
	return nil
}

// OkCatalogDefer is the fixed reconstruction: the cursor closes on every
// path, decode errors included.
func OkCatalogDefer(model string) error {
	s, err := OpenCatalogScan(model)
	if err != nil {
		return err
	}
	defer s.Close()
	for s.Next() {
		if err := s.Decode(); err != nil {
			return errCatalog
		}
	}
	return nil
}

// OkScoreSpan ends the scoring span on the compile-failure path too, as
// engine.ScorePass's End and Abort do.
func OkScoreSpan(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("score", "score-table")
	if fail {
		sp.End()
		return errCatalog
	}
	sp.SetRows(1).End()
	return nil
}
