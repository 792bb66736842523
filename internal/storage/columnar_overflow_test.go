package storage

import (
	"testing"

	"repro/internal/data"
)

// Sealed groups can never overflow the code space: the store seals at
// RowGroupSize rows, which the compile-time guard pins at or below the
// dictionary capacity. This exercises the worst sealed case — every row
// distinct.
func TestAppendAllDistinctSealsSafely(t *testing.T) {
	cs := NewColStore(1)
	for i := 0; i < RowGroupSize+10; i++ {
		cs.Append([]data.Value{data.Value(i)})
	}
	if cs.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", cs.NumGroups())
	}
	sealed := cs.Group(0)
	if len(sealed.Dict(0)) != RowGroupSize {
		t.Fatalf("sealed dictionary has %d entries, want %d", len(sealed.Dict(0)), RowGroupSize)
	}
	if got, ok := sealed.FindCode(0, data.Value(RowGroupSize-1)); !ok || int(got) != RowGroupSize-1 {
		t.Fatalf("FindCode(max) = (%d, %v)", got, ok)
	}
}
