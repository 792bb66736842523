package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// scoreTestServer is a 4.4-group table over stumpModel's two columns: a
// scoring scan publishes its watermark 18 times.
func scoreTestServer(t *testing.T) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ds := data.NewDataset(data.NewSchema(2, 4, 2))
	for i := 0; i < 18000; i++ {
		ds.Append(data.Row{data.Value(rng.Intn(4)), data.Value(rng.Intn(4)), data.Value(rng.Intn(2))})
	}
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// follow reads res behind its watermark until the pass ends, checking every
// row the moment Wait calls it final against the finished reference, and
// returns the rows it saw and the pass's error.
func follow(res, want *ScoreResult) (int, error) {
	have := 0
	for {
		n, done, err := res.Wait(have)
		if n < have {
			return have, fmt.Errorf("watermark fell from %d to %d", have, n)
		}
		for i := have; i < n; i++ {
			if res.Classes[i] != want.Classes[i] || res.Nodes[i] != want.Nodes[i] {
				return i, fmt.Errorf("row %d read behind the watermark is (%d, %d), finished (%d, %d)",
					i, res.Classes[i], res.Nodes[i], want.Classes[i], want.Nodes[i])
			}
		}
		have = n
		if done {
			return have, err
		}
	}
}

// TestScoreResultWatermark hammers a ScoreResult from the scan and two readers
// at once (run it under -race -count=10): what Wait calls final never
// changes, and the watermark only grows.
func TestScoreResultWatermark(t *testing.T) {
	srv := scoreTestServer(t)
	m := stumpModel("m", 2)
	want, err := srv.ScoreColumnar(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, done, err := want.Wait(-1); n != 18000 || !done || err != nil {
		t.Fatalf("ScoreColumnar returned a result at (%d, %v, %v), want finished at 18000", n, done, err)
	}

	t.Run("finished", func(t *testing.T) {
		res, err := srv.OpenScore(m)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if n, err := follow(res, want); err != nil || n != 18000 {
					t.Errorf("reader ended at row %d: %v", n, err)
				}
			}()
		}
		view := srv.View(sim.NewMeter(srv.Meter().Costs()), nil)
		view.ScoreInto(res, m)
		res.Finish(nil)
		wg.Wait()
	})

	t.Run("failed", func(t *testing.T) {
		res, err := srv.OpenScore(m)
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if n, err := follow(res, want); err != boom || n != 4096 {
					t.Errorf("reader of a pass failed after one group ended at row %d with %v", n, err)
				}
			}()
		}
		lane := sim.NewMeter(srv.Meter().Costs())
		sc := res.Consumer(m, lane)
		srv.ScanColumnarRange(predicate.MatchAll(), sc.NeedCols(), 0, 1, lane, sc.Consume)
		res.Finish(boom)
		wg.Wait()
		res.Finish(nil) // an ended pass keeps its first outcome
		if err := res.Err(); err != boom {
			t.Errorf("Err() = %v after a second Finish, want the first outcome", err)
		}
	})

	t.Run("prefix", func(t *testing.T) {
		res := newScoreResult(m, 30)
		at := func() int { n, _, _ := res.Wait(-1); return n }
		if n := at(); n != 0 {
			t.Errorf("nothing published: watermark %d, want 0", n)
		}
		res.publish(5)
		if n := at(); n != 5 {
			t.Errorf("five rows published: watermark %d, want 5", n)
		}
		res.publish(30)
		if n := at(); n != 30 {
			t.Errorf("every row published: watermark %d, want 30", n)
		}
	})
}

// TestScoreResultAllocatedOnce pins that a scoring pass allocates its
// predictions once, at the table's row count: the scan writes into the
// result, nothing grows and nothing is concatenated.
func TestScoreResultAllocatedOnce(t *testing.T) {
	srv := scoreTestServer(t)
	m := stumpModel("m", 2)
	res, err := srv.OpenScore(m)
	if err != nil {
		t.Fatal(err)
	}
	classes, nodes := &res.Classes[0], &res.Nodes[0]
	srv.ScoreInto(res, m)
	if &res.Classes[0] != classes || &res.Nodes[0] != nodes || len(res.Classes) != 18000 || cap(res.Classes) != 18000 {
		t.Error("the scan replaced or regrew the opened result's slices")
	}
}
