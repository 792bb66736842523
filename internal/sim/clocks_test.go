package sim

import (
	"reflect"
	"testing"
	"time"
)

func TestClocksSelection(t *testing.T) {
	c := NewClocks(DefaultCosts())
	c.Open(1, 100)
	c.Open(2, 50)
	c.Open(3, 100)

	if id, ok := c.Next(nil); !ok || id != 2 {
		t.Fatalf("Next = %d,%v, want 2 (furthest behind)", id, ok)
	}
	c.m[2].Advance(200)
	// 1 and 3 tie at 100: lower id wins.
	if id, _ := c.Next(nil); id != 1 {
		t.Fatalf("tie broke to %d, want 1", id)
	}
	// Eligibility restricts the candidate set.
	if id, _ := c.Next(func(id int) bool { return id == 3 }); id != 3 {
		t.Fatalf("eligible-restricted Next picked %d", id)
	}
	if _, ok := c.Next(func(int) bool { return false }); ok {
		t.Fatal("Next found a session with nothing eligible")
	}
	if now := c.m[2].Now(); now != 250*time.Nanosecond {
		t.Fatalf("session 2 clock = %v", now)
	}
	c.Close(2)
	if id, _ := c.Next(nil); len(c.ids) != 2 || id != 1 {
		t.Fatalf("after close: len %d, next %d, want 2 sessions and session 1 next", len(c.ids), id)
	}
}

func TestArrivalsDeterministicAndBounded(t *testing.T) {
	a := Arrivals(42, 8, 1000)
	b := Arrivals(42, 8, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, Arrivals(43, 8, 1000)) {
		t.Fatal("different seeds produced the same schedule")
	}
	var prev int64
	for i, v := range a {
		if v < prev {
			t.Fatalf("arrival %d = %d before predecessor %d", i, v, prev)
		}
		prev = v
	}
	// Gaps are uniform in [0, 2*mean): n arrivals fit under n*2*mean.
	if last := a[len(a)-1]; last >= int64(len(a))*2000 {
		t.Fatalf("last arrival %d outside bound", last)
	}
	if got := Arrivals(7, 3, 0); got[0] != 0 || got[2] != 0 {
		t.Fatalf("zero mean gap must yield zero offsets: %v", got)
	}
}
