package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestDeleteKeepsIndexes: DELETE rebuilds the heap, and used to leave the
// rebuilt table without the old one's secondary indexes.
func TestDeleteKeepsIndexes(t *testing.T) {
	e := newEngine()
	tbl := seedTable(t, e)
	e.MustExec("CREATE INDEX ia ON t (a)")
	e.MustExec("DELETE FROM t WHERE b = 30")
	if tbl, _ = e.Table("t"); len(tbl.indexes) != 1 {
		t.Fatalf("%d indexes after DELETE, want 1", len(tbl.indexes))
	}
	before := e.Meter().CounterVec()
	got := queryInts(t, e, "SELECT a, b FROM t WHERE a = 1")
	d := e.Meter().CounterVec().Delta(before)
	if want := [][]int64{{1, 10}}; !reflect.DeepEqual(got, want) {
		t.Errorf("after DELETE: got %v, want %v", got, want)
	}
	if d[sim.CtrTIDFetches] != 1 || d[sim.CtrColBlocks] != 0 {
		t.Errorf("after DELETE: %d TID fetches, %d column blocks; want an index probe fetching 1 row",
			d[sim.CtrTIDFetches], d[sim.CtrColBlocks])
	}
	if _, err := e.Exec("CREATE INDEX ia ON t (a)"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("re-creating the index after DELETE: %v, want an \"already exists\" error", err)
	}
	// Rows inserted after the DELETE are indexed too.
	e.MustExec("INSERT INTO t VALUES (1, 40, 1)")
	if got, want := queryInts(t, e, "SELECT b FROM t WHERE a = 1"), [][]int64{{10}, {40}}; !reflect.DeepEqual(got, want) {
		t.Errorf("after DELETE and INSERT: got %v, want %v", got, want)
	}
}

// TestOutOfRangeLiteralIsNotNarrowed: 4294967297 narrows to int32 1, a value
// column a holds. On no access path may it reach an index key or a pushed-down
// condition narrowed: = matches nothing, <> everything, and ranges clamp.
func TestOutOfRangeLiteralIsNotNarrowed(t *testing.T) {
	for _, path := range []string{pathColumnar, pathIndex} {
		e := newEngine()
		seedTable(t, e) // a = 1, 2, 1, 3, 2
		if path == pathIndex {
			e.MustExec("CREATE INDEX ia ON t (a)")
		}
		for _, tc := range []struct {
			where string
			want  int64
			scan  bool // not servable by the index: a <> conjunct
		}{
			{"a = 4294967297", 0, false},
			{"4294967297 = a", 0, false},
			{"a <> 4294967297", 5, true},
			{"a < 4294967297", 5, false},
			{"a <= -4294967297", 0, false},
			{"a > -4294967297", 5, false},
			{"a >= 4294967297", 0, false},
			{"a = -4294967297", 0, false},
			{"a > 9223372036854775807", 0, false},
			{"a = 4294967297 AND b = 10", 0, false},
			{"a <> 4294967297 AND b = 10", 3, true},
		} {
			sql := "SELECT COUNT(*) FROM t WHERE " + tc.where
			rs, took := pathTaken(t, e, sql)
			wantPath := path
			if path == pathIndex && tc.scan {
				wantPath = pathColumnar
			}
			if took != wantPath {
				t.Errorf("%s: took the %s path, want %s", sql, took, wantPath)
			}
			if got := rs.Rows[0][0].I; got != tc.want {
				t.Errorf("%s on the %s path: %d rows, want %d", sql, took, got, tc.want)
			}
		}
	}
}
