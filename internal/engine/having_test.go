package engine

import (
	"reflect"
	"testing"
)

func TestHavingFiltersGroups(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) >= 2 ORDER BY a")
	want := [][]int64{{1, 2}, {2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestHavingWithAggregateNotInProjection(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	// SUM(b) per a: a=1 -> 40, a=2 -> 30, a=3 -> 10.
	got := queryInts(t, e, "SELECT a FROM t GROUP BY a HAVING SUM(b) > 25 ORDER BY a")
	want := [][]int64{{1}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestHavingOnGroupColumn(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT a, COUNT(*) FROM t GROUP BY a HAVING a <> 2 AND COUNT(*) > 0 ORDER BY a")
	want := [][]int64{{1, 2}, {3, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestHavingErrors(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	if _, err := e.Exec("SELECT a FROM t GROUP BY a HAVING nope = 1"); err == nil {
		t.Error("unknown column in HAVING accepted")
	}
}

func TestLimit(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT b FROM t ORDER BY b DESC LIMIT 2")
	want := [][]int64{{30}, {20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := queryInts(t, e, "SELECT b FROM t LIMIT 0"); len(got) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(got))
	}
	// LIMIT larger than the result is a no-op.
	if got := queryInts(t, e, "SELECT b FROM t LIMIT 100"); len(got) != 5 {
		t.Errorf("LIMIT 100 returned %d rows", len(got))
	}
}

func TestAvg(t *testing.T) {
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT a, AVG(b) FROM t GROUP BY a ORDER BY a")
	// a=1: (10+30)/2=20; a=2: (20+10)/2=15; a=3: 10.
	want := [][]int64{{1, 20}, {2, 15}, {3, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// AVG over empty input yields 0 (no NULL in this engine).
	e.MustExec("CREATE TABLE empty (x INT)")
	if got := queryInts(t, e, "SELECT AVG(x) FROM empty"); got[0][0] != 0 {
		t.Errorf("AVG over empty = %d", got[0][0])
	}
}

func TestHavingLimitRoundTrip(t *testing.T) {
	// Parser round-trip for the new clauses (complements parser_test).
	e := newEngine()
	seedTable(t, e)
	got := queryInts(t, e, "SELECT a, COUNT(*) FROM t WHERE c = 0 GROUP BY a HAVING COUNT(*) >= 1 ORDER BY a LIMIT 1")
	if len(got) != 1 || got[0][0] != 1 {
		t.Errorf("got %v", got)
	}
}
