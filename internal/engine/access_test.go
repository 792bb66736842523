package engine

import "testing"

// TestOutOfRangeLiteralIsNotNarrowed: 4294967297 narrows to int32 1, a value
// column a holds. It must not reach a pushed-down condition narrowed: such a
// conjunct stays residual, where = matches nothing, <> everything, and every
// range compares in int64.
func TestOutOfRangeLiteralIsNotNarrowed(t *testing.T) {
	e := newEngine()
	seedTable(t, e) // a = 1, 2, 1, 3, 2
	for _, tc := range []struct {
		where string
		want  int64
	}{
		{"a = 4294967297", 0},
		{"4294967297 = a", 0},
		{"a <> 4294967297", 5},
		{"a < 4294967297", 5},
		{"a <= -4294967297", 0},
		{"a > -4294967297", 5},
		{"a >= 4294967297", 0},
		{"a = -4294967297", 0},
		{"a > 9223372036854775807", 0},
		{"a = 4294967297 AND b = 10", 0},
		{"a <> 4294967297 AND b = 10", 3},
	} {
		sql := "SELECT COUNT(*) FROM t WHERE " + tc.where
		if got := execColumnar(t, e, sql).Rows[0][0].I; got != tc.want {
			t.Errorf("%s: %d rows, want %d", sql, got, tc.want)
		}
	}
}
