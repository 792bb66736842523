//go:build !race

package mw

import "testing"

// TestUntracedStepAllocs: with no tracer attached a root Step allocates no
// more than it did at the commit that still assembled a second per-batch
// record (that commit's testing.AllocsPerRun counts, same data and configs).
// The race detector allocates on its own account, hence the build tag.
func TestUntracedStepAllocs(t *testing.T) {
	ds := randDataset(3000, 12)
	for _, tc := range []struct {
		cfg  Config
		want float64 // allocations of the root Step at the parent commit
	}{
		{Config{Staging: StageMemoryOnly, Memory: 4 * ds.Bytes()}, 157},
		{Config{Staging: StageNone}, 60},
	} {
		const runs = 5
		mws := make([]*Middleware, runs+1) // AllocsPerRun warms up once
		for i := range mws {
			mws[i], _ = newMW(t, ds, tc.cfg)
			if err := mws[i].Enqueue(rootRequest(ds)); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if _, err := mws[i].Step(); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > tc.want {
			t.Errorf("staging %v: untraced root Step allocates %v times, parent %v", tc.cfg.Staging, got, tc.want)
		}
	}
}
