package analysis

// White-box tests for the function-summary fixed point: convergence on
// recursive and mutually recursive cycles, constructor freshness
// propagation, chain construction, and idempotent recomputation.

import (
	"testing"
)

// spanendSummaries computes the spanend summary table over the lintdata
// module with a fresh index, returning the index.
func spanendSummaries(t *testing.T) *ModuleIndex {
	t.Helper()
	pkgs, _ := loadLintdata(t)
	idx := NewModuleIndex(pkgs)
	idx.summaries(spanendRules())
	return idx
}

func spanParam(t *testing.T, idx *ModuleIndex, fn string) ParamSummary {
	t.Helper()
	sum := idx.sums["spanend"][fn]
	if sum == nil {
		t.Fatalf("no summary for %s", fn)
	}
	for _, p := range sum.Params {
		if p.Tracked {
			return p
		}
	}
	t.Fatalf("%s has no tracked parameter", fn)
	return ParamSummary{}
}

// TestSummaryFixedPointRecursion pins the lattice outcomes on cycles: a
// self-recursive helper that releases on its base case converges to
// always-releasing (the optimistic start keeps the cycle from pessimizing
// itself), one with a non-releasing base case settles at conditional, and a
// mutually recursive pair converges to always.
func TestSummaryFixedPointRecursion(t *testing.T) {
	idx := spanendSummaries(t)
	cases := []struct {
		fn   string
		want relStatus
	}{
		{"lintdata/interproc.recEnd", relAlways},
		{"lintdata/interproc.recLeak", relCond},
		{"lintdata/interproc.pingEnd", relAlways},
		{"lintdata/interproc.pongEnd", relAlways},
		{"lintdata/interproc.endAlways", relAlways},
		{"lintdata/interproc.endIf", relCond},
		{"lintdata/interproc.endSafe", relAlways},
		{"lintdata/interproc.logSpan", relNever},
		{"lintdata/interproc.forwardLeak", relNever},
	}
	for _, c := range cases {
		if got := spanParam(t, idx, c.fn).Status; got != c.want {
			t.Errorf("%s: status %d, want %d", c.fn, got, c.want)
		}
	}
}

// TestSummaryConvergenceBounds pins that the fixed point needed more than
// one round (the cycle shapes require propagation) but stayed comfortably
// under the iteration cap, i.e. it genuinely converged rather than bailing.
func TestSummaryConvergenceBounds(t *testing.T) {
	idx := spanendSummaries(t)
	it := idx.iters["spanend"]
	if it <= 1 {
		t.Errorf("fixed point converged in %d iteration(s); the recursive shapes should need at least 2", it)
	}
	if it >= summaryMaxIter {
		t.Errorf("fixed point hit the iteration cap (%d): chains or statuses are oscillating", it)
	}
}

// TestSummaryFreshResults pins constructor freshness through two wrapper
// levels.
func TestSummaryFreshResults(t *testing.T) {
	idx := spanendSummaries(t)
	for _, fn := range []string{"lintdata/interproc.startSpan", "lintdata/interproc.startSpan2"} {
		sum := idx.sums["spanend"][fn]
		if sum == nil {
			t.Fatalf("no summary for %s", fn)
		}
		if len(sum.Results) != 1 || !sum.Results[0].Fresh {
			t.Errorf("%s: result not marked fresh: %+v", fn, sum.Results)
		}
	}
	// An accessor returning an existing value must NOT be fresh.
	pkgs, _ := loadLintdata(t)
	cidx := NewModuleIndex(pkgs)
	cidx.summaries(closerRules())
	if sum := cidx.sums["closer"]["(*lintdata/res.Pool).Shared"]; sum != nil {
		for i, r := range sum.Results {
			if r.Fresh {
				t.Errorf("Pool.Shared result %d wrongly marked fresh", i)
			}
		}
	}
	for _, fn := range []string{"lintdata/interproc.makeCursor", "lintdata/interproc.makeCursor2"} {
		sum := cidx.sums["closer"][fn]
		if sum == nil || len(sum.Results) != 1 || !sum.Results[0].Fresh {
			t.Errorf("%s: result not marked fresh", fn)
		}
	}
}

// TestSummaryChains pins the callee chain recorded on a forwarding helper.
func TestSummaryChains(t *testing.T) {
	idx := spanendSummaries(t)
	p := spanParam(t, idx, "lintdata/interproc.forwardLeak")
	if len(p.Chain) != 1 || p.Chain[0] != "interproc.logSpan" {
		t.Errorf("forwardLeak chain = %v, want [interproc.logSpan]", p.Chain)
	}
	// The self-recursive conditional releaser's chain names the cycle head
	// once and must not grow through its own cycle (that would prevent
	// convergence).
	if p := spanParam(t, idx, "lintdata/interproc.recLeak"); len(p.Chain) != 1 || p.Chain[0] != "interproc.recLeak" {
		t.Errorf("recLeak chain = %v, want [interproc.recLeak] (deduped through the cycle)", p.Chain)
	}
}

// TestSummaryIdempotent pins that recomputing the table from scratch gives
// identical summaries — the determinism contract of the whole suite rests
// on this.
func TestSummaryIdempotent(t *testing.T) {
	a := spanendSummaries(t)
	b := spanendSummaries(t)
	if len(a.names) != len(b.names) {
		t.Fatalf("index sizes differ: %d vs %d", len(a.names), len(b.names))
	}
	for _, name := range a.names {
		sa, sb := a.sums["spanend"][name], b.sums["spanend"][name]
		if (sa == nil) != (sb == nil) {
			t.Errorf("%s: summary presence differs", name)
			continue
		}
		if sa != nil && !sa.equal(sb) {
			t.Errorf("%s: summaries differ between recomputations", name)
		}
	}
	if a.iters["spanend"] != b.iters["spanend"] {
		t.Errorf("iteration counts differ: %d vs %d", a.iters["spanend"], b.iters["spanend"])
	}
}
