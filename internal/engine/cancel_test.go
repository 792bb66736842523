package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/predicate"
	"repro/internal/sim"
)

// TestScanCancelled: a scan whose context is cancelled mid-table stops before
// its next block and returns context.Canceled, having charged only the blocks
// it ran; a statement on a cancelled context fails the same way. A context
// that is never cancelled changes nothing: ScanGroups on Background and the
// context-free entry points give the same rows, clock and counters.
func TestScanCancelled(t *testing.T) {
	srv, ds := partitionTestServer(t, 20000) // five row groups, twenty blocks
	ng := srv.NumColGroups()
	all := predicate.MatchAll()

	scan := func(ctx context.Context, m *sim.Meter, fn func(*ColBlock) bool) error {
		c := &ScanConsumer{Filter: all, Meter: m, Fn: fn}
		return ScanGroups(ctx, srv.ColGroups(nil), []*ScanConsumer{c}, 0, ng, m)
	}
	plain, bg := sim.NewMeter(srv.Meter().Costs()), sim.NewMeter(srv.Meter().Costs())
	srv.ScanColumnarRange(all, nil, 0, ng, plain, func(*ColBlock) bool { return true })
	if err := scan(context.Background(), bg, func(*ColBlock) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if plain.Now() != bg.Now() || plain.CounterVec() != bg.CounterVec() {
		t.Errorf("Background scan charged %v %v, the context-free one %v %v", bg.Now(), bg.CounterVec(), plain.Now(), plain.CounterVec())
	}

	ctx, cancel := context.WithCancel(context.Background())
	m := sim.NewMeter(srv.Meter().Costs())
	blocks := 0
	err := scan(ctx, m, func(*ColBlock) bool {
		if blocks++; blocks == 3 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) || blocks != 3 {
		t.Fatalf("cancelled after block 3: %d blocks, error %v; want 3 and context.Canceled", blocks, err)
	}
	if n := m.Count(sim.CtrColBlocks); n != 3 || m.Count(sim.CtrServerRows) != 3*BlockRows {
		t.Errorf("cancelled scan charged %d blocks, %d rows; want 3 blocks of %d", n, m.Count(sim.CtrServerRows), BlockRows)
	}

	for _, sql := range []string{
		"SELECT COUNT(*) FROM cases",
		"SELECT A1, COUNT(*) FROM cases GROUP BY A1",
		"SELECT A1, A2 FROM cases WHERE A3 = 1",
	} {
		if _, err := srv.Engine().ExecContext(ctx, sql); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context: %v, want context.Canceled", sql, err)
		}
		a, _ := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
		b, _ := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
		want := a.Engine().MustExec(sql)
		got, err := b.Engine().ExecContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		am, bm := a.Meter(), b.Meter()
		if !reflect.DeepEqual(got, want) || am.Now() != bm.Now() || am.CounterVec() != bm.CounterVec() {
			t.Errorf("%s: ExecContext(Background) differs from Exec in rows, clock or counters", sql)
		}
	}
}
