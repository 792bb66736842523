package mw

import (
	"sort"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// This file fans the batch's SQL-fallback requests out over forked lanes.
// The serial path executes one §2.3 UNION-of-GROUP-BY statement per request
// (sqlCounts); each UNION arm is an independent GROUP BY that scans the table
// on its own, so the natural parallel unit is the arm, not the statement.
// The statement itself is unchanged — startup is charged once per request on
// the parent — while its arms execute on the server's parallel CPUs: each
// arm scans on a private lane meter (buffer-pool-warm or cold scan +
// per-row aggregation — see engine.CountsArmScan), counting into a private
// cc.Table shard; after the barrier the shards merge in arm order on the
// parent meter. Arms count disjoint attributes, so the merged table equals
// the serial statement's parse, and lanes touch only lane-local state,
// keeping results and the virtual clock bit-for-bit reproducible across
// GOMAXPROCS.

// fbArm identifies one GROUP BY arm of one fallback request: the arm's
// grouping attribute, or the class-histogram arm (attr == class index,
// class == true) that closes each request's UNION.
type fbArm struct {
	reqIdx int
	attr   int
	class  bool
}

// fallbackArms flattens the fallback requests into per-arm work units in
// deterministic order: for each request (in fallback order) its attribute
// arms in Attrs order, then the class arm — mirroring CountsSQL's arm order.
func fallbackArms(reqs []*Request, classIdx int) []fbArm {
	var units []fbArm
	for ri, r := range reqs {
		for _, a := range r.Attrs {
			units = append(units, fbArm{reqIdx: ri, attr: a})
		}
		units = append(units, fbArm{reqIdx: ri, attr: classIdx, class: true})
	}
	return units
}

// fallbackWorkers decides the lane count for the batch's SQL-fallback
// requests: one work unit per GROUP BY arm, capped at Config.Workers. Below
// two units (or Workers <= 1) the serial per-request path runs instead.
func (m *Middleware) fallbackWorkers(reqs []*Request) int {
	w := m.cfg.Workers
	if w <= 1 || len(reqs) == 0 {
		return 1
	}
	units := 0
	for _, r := range reqs {
		units += len(r.Attrs) + 1
	}
	if units < w {
		w = units
	}
	if w < 2 {
		return 1
	}
	return w
}

// fallbackArmWeights estimates each arm's scan cost: the page I/O (cold
// scans only) and per-row CPU every arm pays, plus one aggregation step per
// row the arm's request filter is estimated to match, from the table's
// row-group statistics. Returns nil when hints are disabled, sending the
// caller back to round-robin assignment.
func (m *Middleware) fallbackArmWeights(units []fbArm, reqs []*Request, warm bool) []int64 {
	costs := m.meter.Costs()
	est := make([]int64, len(reqs))
	for i, r := range reqs {
		e := m.srv.EstimateMatch(predicate.Or(r.Path))
		if e < 0 {
			return nil
		}
		est[i] = e
	}
	base := m.srv.NumRows() * costs.ServerRowCPU
	if !warm {
		base += int64(m.srv.NumPages()) * costs.ServerPageIO
	}
	weights := make([]int64, len(units))
	for k, u := range units {
		weights[k] = base + est[u.reqIdx]*costs.SQLAggRow
	}
	return weights
}

// fallbackArmLanes assigns each arm unit to a lane. With histogram hints a
// deterministic longest-processing-time greedy packs heavy arms first onto
// the least-loaded lane (ties break toward lower unit index and lower lane
// index), so a batch whose requests match very different row counts still
// balances; without hints it is the static round-robin k % nworkers. Either
// way the schedule is a pure function of the unit list and table stats, and
// shards still merge in global unit order, so results never depend on it.
func (m *Middleware) fallbackArmLanes(units []fbArm, reqs []*Request, nworkers int, warm bool) []int {
	laneOf := make([]int, len(units))
	weights := m.fallbackArmWeights(units, reqs, warm)
	if weights == nil {
		for k := range laneOf {
			laneOf[k] = k % nworkers
		}
		return laneOf
	}
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	load := make([]int64, nworkers)
	for _, k := range order {
		best := 0
		for l := 1; l < nworkers; l++ {
			if load[l] < load[best] {
				best = l
			}
		}
		laneOf[k] = best
		load[best] += weights[k]
	}
	return laneOf
}

// runFallbackParallel services the fallback requests with nworkers lanes and
// returns one counts table per request, in request order. Arms are assigned
// to lanes by fallbackArmLanes (weighted LPT under histogram hints,
// round-robin otherwise) — a static schedule that is a pure function of the
// unit list and table statistics — and the post-barrier merge charges the
// serial per-entry shard-merge cost on the parent, like the parallel scan's
// CC merge.
func (m *Middleware) runFallbackParallel(reqs []*Request, nworkers int) []*cc.Table {
	classIdx := m.schema.ClassIndex()
	units := fallbackArms(reqs, classIdx)
	tr := m.srv.Tracer()
	psp := tr.Start(obs.CatFallback, "sql-fallback-parallel").
		Attr("requests", int64(len(reqs))).Attr("arms", int64(len(units)))
	psp.SetNodes(nodeIDs(reqs))

	// One UNION statement per request reaches the server, exactly as on the
	// serial path; only its arms execute on parallel CPUs. Statement startup
	// is therefore charged per request on the parent, never per arm.
	startup := m.meter.Costs().QueryStartup
	for range reqs {
		m.meter.Charge(sim.CtrSQLStatements, startup, 1)
	}

	// Fault the table into the shared buffer pool on the parent meter before
	// forking (a no-op charge when earlier statements left it resident, and
	// skipped entirely when the table exceeds the pool). Lanes then scan warm
	// or cold exactly like the serial UNION's arms would, without ever
	// touching the pool from a goroutine.
	warm := m.srv.WarmTable()
	laneOf := m.fallbackArmLanes(units, reqs, nworkers, warm)

	shards := make([]*cc.Table, len(units))
	obs.RunLanes(m.meter, tr, nworkers, func(w int, lane *sim.Meter, ltr *obs.Tracer) {
		costs := lane.Costs()
		for k, u := range units {
			if laneOf[k] != w {
				continue
			}
			r := reqs[u.reqIdx]
			asp := ltr.Start(obs.CatFallback, "fallback-arm").
				Attr("node", int64(r.NodeID)).Attr("attr", int64(u.attr))
			t := cc.New()
			m.srv.CountsArmScan(predicate.Or(r.Path), lane, warm, func(row data.Row) {
				t.Add(u.attr, row[u.attr], row[classIdx], 1)
			})
			// One transmitted result row per aggregated group, matching
			// the serial statement's result-set transfer.
			lane.Charge(sim.CtrRowsTransmitted, costs.RowTransmit, int64(t.Entries()))
			shards[k] = t
			asp.SetSource("sql").SetRows(int64(t.Entries())).End()
		}
	})

	// Merge arm shards per request in arm order on the parent meter. Arms
	// group disjoint attributes, so the merge is pure accumulation; the class
	// arm (always a request's last unit) carries the request's row count.
	mergeCost := m.meter.Costs().MergeEntry
	out := make([]*cc.Table, len(reqs))
	for i := range out {
		out[i] = cc.New()
	}
	for k, u := range units {
		t := shards[k]
		m.meter.Charge(sim.CtrShardMergeEntries, mergeCost, int64(t.Entries()))
		out[u.reqIdx].Merge(t)
		if u.class {
			var rows int64
			t.Walk(func(_ cc.Key, n int64) { rows += n })
			out[u.reqIdx].SetRows(rows)
		}
	}
	psp.End()
	return out
}
