package exp

import "fmt"

// Check validates an experiment's qualitative shape against the paper's
// claim — the machine-checkable form of the PaperShape sentence. It returns
// nil when the shape is reproduced. Unknown experiment ids return an error.
func Check(e *Experiment) error {
	fn, ok := checks[e.ID]
	if !ok {
		return fmt.Errorf("exp: no shape check for %q", e.ID)
	}
	return fn(e)
}

var checks = map[string]func(*Experiment) error{
	"fig4-left": func(e *Experiment) error {
		caching, none := e.Series[0].Points, e.Series[1].Points
		last := len(caching) - 1
		if caching[last].Seconds >= none[last].Seconds {
			return fmt.Errorf("caching (%.3f) not faster than no-caching (%.3f) at max memory",
				caching[last].Seconds, none[last].Seconds)
		}
		for _, s := range e.Series {
			if s.Points[last].Seconds > s.Points[0].Seconds {
				return fmt.Errorf("%s: time rose with memory", s.Name)
			}
		}
		return nil
	},
	"fig4-right": func(e *Experiment) error {
		// Time rises with data size in every configuration.
		for _, s := range e.Series {
			n := len(s.Points)
			if s.Points[n-1].Seconds <= s.Points[0].Seconds {
				return fmt.Errorf("%s: time did not grow with data size", s.Name)
			}
		}
		// High-memory caching is the cheapest configuration at the largest size.
		last := len(e.Series[0].Points) - 1
		best := e.Series[2].Points[last].Seconds // hiMem caching
		for _, s := range []Series{e.Series[0], e.Series[1], e.Series[3]} {
			if s.Points[last].Seconds < best {
				return fmt.Errorf("hiMem caching not cheapest at max size (beaten by %s)", s.Name)
			}
		}
		return nil
	},
	"fig5a": func(e *Experiment) error {
		pts := e.Series[0].Points
		if pts[0].Seconds <= pts[len(pts)-1].Seconds {
			return fmt.Errorf("tight memory not slower than ample memory")
		}
		return nil
	},
	"fig5b": func(e *Experiment) error {
		for _, s := range e.Series {
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Seconds < s.Points[i-1].Seconds {
					return fmt.Errorf("%s: time fell as rows grew", s.Name)
				}
			}
		}
		return nil
	},
	"fig6": func(e *Experiment) error {
		// The hybrid (series 2) never loses to one-file (series 1) by more
		// than noise, and config 4 (series 3) wins at the highest memory.
		hybrid, oneFile, withMem := e.Series[2].Points, e.Series[1].Points, e.Series[3].Points
		for i := range hybrid {
			if hybrid[i].Seconds > oneFile[i].Seconds*1.05 {
				return fmt.Errorf("split@50%% lost to one-file at point %d", i)
			}
		}
		last := len(hybrid) - 1
		if withMem[last].Seconds >= hybrid[last].Seconds {
			return fmt.Errorf("memory staging added nothing at max memory")
		}
		return nil
	},
	"fig7-left": func(e *Experiment) error {
		for _, s := range e.Series {
			n := len(s.Points)
			if s.Points[n-1].Seconds <= s.Points[0].Seconds {
				return fmt.Errorf("%s: time did not grow with attributes", s.Name)
			}
		}
		caching, none := e.Series[0].Points, e.Series[1].Points
		for i := range caching {
			if caching[i].Seconds >= none[i].Seconds {
				return fmt.Errorf("caching not below no-caching at point %d", i)
			}
		}
		return nil
	},
	"fig7-right": func(e *Experiment) error {
		mws, sqls := e.Series[0].Points, e.Series[1].Points
		for i := range mws {
			if sqls[i].Seconds < 2*mws[i].Seconds {
				return fmt.Errorf("sql counting not >= 2x middleware at point %d", i)
			}
		}
		r0 := sqls[0].Seconds / mws[0].Seconds
		rN := sqls[len(sqls)-1].Seconds / mws[len(mws)-1].Seconds
		if rN <= r0 {
			return fmt.Errorf("sql/mw ratio did not grow with data (%.1f -> %.1f)", r0, rN)
		}
		return nil
	},
	"fig8a": func(e *Experiment) error {
		cursor, file := e.Series[0].Points, e.Series[1].Points
		worse := 0
		for i := range cursor {
			if file[i].Seconds > cursor[i].Seconds {
				worse++
			}
		}
		if worse < len(cursor)-1 {
			return fmt.Errorf("file store beat the cursor at %d of %d points", len(cursor)-worse, len(cursor))
		}
		return nil
	},
	"fig8b": func(e *Experiment) error {
		for _, s := range e.Series {
			n := len(s.Points)
			if s.Points[n-1].Seconds <= s.Points[0].Seconds {
				return fmt.Errorf("%s: time did not grow with leaves", s.Name)
			}
		}
		return nil
	},
	"sec5.2.5": func(e *Experiment) error {
		pts := e.Series[0].Points
		seq := pts[0].Seconds
		for _, p := range pts[1:] {
			if p.Seconds < seq*0.95 {
				return fmt.Errorf("%s beat the sequential scan by >5%%", p.Label)
			}
		}
		return nil
	},
	"extract-all": func(e *Experiment) error {
		mws, ext := e.Series[0].Points, e.Series[1].Points
		last := len(mws) - 1
		if ext[last].Seconds <= mws[last].Seconds {
			return fmt.Errorf("extract-all not slower at the largest (spilling) size")
		}
		return nil
	},
	"naive-bayes": func(e *Experiment) error {
		pts := e.Series[0].Points
		for i := 1; i < len(pts); i++ {
			if pts[i].Seconds <= pts[i-1].Seconds {
				return fmt.Errorf("training time not increasing in rows")
			}
		}
		// Roughly linear: doubling rows should not much more than double time.
		r := pts[len(pts)-1].Seconds / pts[0].Seconds
		x := pts[len(pts)-1].X / pts[0].X
		if r > 1.6*x {
			return fmt.Errorf("training time superlinear: %.1fx time for %.1fx rows", r, x)
		}
		return nil
	},
	"abl-pushdown": func(e *Experiment) error {
		on, off := e.Series[0].Points, e.Series[1].Points
		for i := range on {
			if off[i].Seconds <= on[i].Seconds {
				return fmt.Errorf("pushdown showed no benefit at point %d", i)
			}
		}
		return nil
	},
	"abl-batching": func(e *Experiment) error {
		on, off := e.Series[0].Points, e.Series[1].Points
		for i := range on {
			if off[i].Seconds < 2*on[i].Seconds {
				return fmt.Errorf("batching benefit below 2x at point %d", i)
			}
		}
		return nil
	},
	"abl-rule3": func(e *Experiment) error {
		// Expect parity: neither order ahead by more than 15%.
		r3, fifo := e.Series[0].Points, e.Series[1].Points
		for i := range r3 {
			ratio := r3[i].Seconds / fifo[i].Seconds
			if ratio > 1.15 || ratio < 0.85 {
				return fmt.Errorf("rule3/fifo ratio %.2f outside parity band at point %d", ratio, i)
			}
		}
		return nil
	},
	"scaling": func(e *Experiment) error {
		// Adding workers must pay: in every configuration, 2 workers beat 1
		// and 4 workers beat 1 on virtual build time.
		for _, s := range e.Series {
			one := s.Points[0].Seconds
			for _, p := range s.Points[1:] {
				if p.X > 4 {
					// 8 workers may flatten against serial fractions but
					// must never regress below sequential.
					if p.Seconds > one {
						return fmt.Errorf("%s: %g workers (%.3fs) slower than 1 worker (%.3fs)",
							s.Name, p.X, p.Seconds, one)
					}
					continue
				}
				if p.Seconds >= one {
					return fmt.Errorf("%s: %g workers (%.3fs) not faster than 1 worker (%.3fs)",
						s.Name, p.X, p.Seconds, one)
				}
			}
		}
		return nil
	},
	"skew": func(e *Experiment) error {
		eq, hist := e.Series[0].Points, e.Series[1].Points
		// Histogram splits never cost wall-clock: at every worker count the
		// skew-aware build is at least as fast as the equal-width build.
		for i := range hist {
			if hist[i].Seconds > eq[i].Seconds*1.001 {
				return fmt.Errorf("histogram build (%.3fs) slower than equal-width (%.3fs) at %g workers",
					hist[i].Seconds, eq[i].Seconds, hist[i].X)
			}
		}
		// The headline claim: at the highest worker count the worst per-batch
		// lane imbalance falls by at least 2x under histogram splits.
		last := len(eq) - 1
		eqImb := eq[last].Counters["max_lane_imbalance_ns"]
		histImb := hist[last].Counters["max_lane_imbalance_ns"]
		if eqImb <= 0 {
			return fmt.Errorf("equal-width run shows no lane imbalance at %g workers", eq[last].X)
		}
		if histImb*2 > eqImb {
			return fmt.Errorf("histogram imbalance %d ns not <= half of equal-width %d ns at %g workers",
				histImb, eqImb, eq[last].X)
		}
		return nil
	},
	"columnar": func(e *Experiment) error {
		col := e.Series[0].Points
		for _, p := range col {
			// Dictionary packing alone must cut modeled pages everywhere.
			if p.Counters["server_pages_read"] >= p.Counters["heap_pages"] {
				return fmt.Errorf("columnar read %d pages, as many heap scans %d on %s: no packing win",
					p.Counters["server_pages_read"], p.Counters["heap_pages"], p.Label)
			}
		}
		// The headline claim: on the clustered workload (last point) zone-map
		// skipping stacks on packing for at least a 2x page-I/O cut.
		last := col[len(col)-1]
		hp, cp := last.Counters["heap_pages"], last.Counters["server_pages_read"]
		if hp < 2*cp {
			return fmt.Errorf("clustered: heap scans read %d pages, columnar %d — below the 2x claim", hp, cp)
		}
		if last.Counters["col_groups_skipped"] == 0 {
			return fmt.Errorf("clustered: zone maps skipped no row groups")
		}
		return nil
	},
	"serve": func(e *Experiment) error {
		shared, solo := e.Series[0].Points, e.Series[1].Points
		for i := range shared {
			sp := shared[i].Counters["server_pages_total"]
			np := solo[i].Counters["server_pages_total"]
			if shared[i].X == 1 {
				// A lone session has nobody to share with: identical cost.
				if sp != np {
					return fmt.Errorf("1 client: sharing-on read %d pages, off %d — must be identical", sp, np)
				}
				continue
			}
			// The headline claim: attaching concurrent scans to one cursor
			// cuts the cohort's total modeled page I/O.
			if sp >= np {
				return fmt.Errorf("%g clients: sharing-on read %d pages, off %d — no sharing win",
					shared[i].X, sp, np)
			}
			if shared[i].Counters["shared_io_pages"] == 0 {
				return fmt.Errorf("%g clients: no pages charged to the shared scan", shared[i].X)
			}
			// Sharing must never slow the cohort down.
			if shared[i].Seconds > solo[i].Seconds*1.001 {
				return fmt.Errorf("%g clients: makespan %.3fs with sharing, %.3fs without",
					shared[i].X, shared[i].Seconds, solo[i].Seconds)
			}
		}
		// Per-session latency: sharing at worst matches running alone.
		latShared, latSolo := e.Series[2].Points, e.Series[3].Points
		for i := range latShared {
			if latShared[i].Seconds > latSolo[i].Seconds*1.001 {
				return fmt.Errorf("%g clients: mean latency %.3fs with sharing, %.3fs without",
					latShared[i].X, latShared[i].Seconds, latSolo[i].Seconds)
			}
		}
		return nil
	},
	"sensitivity": func(e *Experiment) error {
		caching, none := e.Series[0].Points, e.Series[1].Points
		for i := range caching {
			if caching[i].Seconds >= none[i].Seconds {
				return fmt.Errorf("variant %s: caching not faster", caching[i].Label)
			}
		}
		return nil
	},
	"scoring": func(e *Experiment) error {
		eng, client := e.Series[0].Points, e.Series[1].Points
		if len(eng) == 0 || len(eng) != len(client) {
			return fmt.Errorf("scoring: malformed series (%d engine, %d client points)", len(eng), len(client))
		}
		for i := range eng {
			// The headline claim, at every worker count: shipping the model
			// to the data beats shipping the data to the model on time,
			// throughput and modeled page I/O.
			if eng[i].Seconds >= client[i].Seconds {
				return fmt.Errorf("workers=%g: in-engine %.4fs, in-client %.4fs — no scoring win",
					eng[i].X, eng[i].Seconds, client[i].Seconds)
			}
			ep, cp := eng[i].Counters["server_pages_read"], client[i].Counters["server_pages_read"]
			if ep >= cp {
				return fmt.Errorf("workers=%g: in-engine read %d pages, in-client %d — no page win",
					eng[i].X, ep, cp)
			}
			if eng[i].Counters["rows_per_sec"] <= client[i].Counters["rows_per_sec"] {
				return fmt.Errorf("workers=%g: in-engine %d rows/s, in-client %d — no throughput win",
					eng[i].X, eng[i].Counters["rows_per_sec"], client[i].Counters["rows_per_sec"])
			}
			// Both arms must actually have scored the whole table the same way.
			if eng[i].Counters["score_rows"] != client[i].Counters["score_rows"] {
				return fmt.Errorf("workers=%g: engine scored %d rows, client %d",
					eng[i].X, eng[i].Counters["score_rows"], client[i].Counters["score_rows"])
			}
			if eng[i].Counters["model_node_probes"] == 0 {
				return fmt.Errorf("workers=%g: engine walked no model nodes", eng[i].X)
			}
		}
		// Worker scaling: the parallel operator at 8 workers beats itself at 1.
		if last, first := eng[len(eng)-1], eng[0]; last.Seconds >= first.Seconds {
			return fmt.Errorf("no worker scaling: %.4fs at workers=%g vs %.4fs at workers=%g",
				last.Seconds, last.X, first.Seconds, first.X)
		}
		return nil
	},
}
