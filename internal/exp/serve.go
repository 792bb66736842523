package exp

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// ServeFleet measures the multi-tenant serving layer: 1, 2, 4 and 8
// concurrent clients each build a full census tree against one engine, with
// scan sharing on and off. With sharing off, every session's server batches
// read their own pages, so total modeled page I/O grows linearly with the
// cohort; with sharing on, sessions whose next batch scans the table attach
// to one physical scan that charges the page I/O once, so the cohort's total
// pages stay near the single-client figure while every session still gets
// the byte-identical single-tenant tree. Makespan approximates inverse
// throughput, mean per-session latency the client experience; both are
// virtual-time, hence exactly reproducible.
func ServeFleet(env *Env, scale float64) (*Experiment, error) {
	ds, err := censusData(datagen.CensusConfig{Rows: scaled(8000, scale), Seed: 7})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:     "serve",
		Title:  "Multi-tenant serving: concurrent builds with and without scan sharing",
		XLabel: "clients",
		YLabel: "virtual seconds",
		PaperShape: "total modeled page I/O grows linearly with concurrent clients when every " +
			"session scans alone, and stays near the single-client figure when concurrent " +
			"scans share one cursor; sharing never slows a session down, and every session's " +
			"tree is identical to the single-tenant build",
		Series: []Series{
			{Name: "makespan shared"},
			{Name: "makespan solo"},
			{Name: "mean latency shared"},
			{Name: "mean latency solo"},
		},
	}

	var col *obs.Trace
	if env != nil {
		col = env.Obs
	}
	var refTree *dtree.Tree
	for _, clients := range []int{1, 2, 4, 8} {
		for si, sharing := range []bool{true, false} {
			meter := sim.NewDefaultMeter()
			srv, err := engine.NewServer(engine.New(meter, 0), "cases", ds)
			if err != nil {
				return nil, err
			}
			fcfg := serve.FleetConfig{
				Base:        mw.Config{Staging: mw.StageFileAndMemory},
				TotalMemory: ds.Bytes() / 2,
				MaxSessions: clients,
				ScanSharing: sharing,
			}
			fleet, err := serve.NewFleet(srv, col, fcfg)
			if err != nil {
				return nil, err
			}
			arrivals := sim.Arrivals(1, clients, 500_000)
			for c := 0; c < clients; c++ {
				label := fmt.Sprintf("serve-c%d-share%v-s%d", clients, sharing, c+1)
				s, err := fleet.Open(label, dtree.Options{}, arrivals[c])
				if err != nil {
					return nil, err
				}
				// Run closes finished sessions; the defer covers error paths.
				defer s.Close()
			}
			if err := fleet.Run(); err != nil {
				return nil, err
			}

			var latSum float64
			for _, s := range fleet.Sessions() {
				// Node ids depend on batch composition (and therefore on the
				// memory slice, which shrinks as clients grow), so compare
				// structure, not dumps.
				if refTree == nil {
					refTree = s.Tree()
				} else if !dtree.Equal(s.Tree(), refTree) {
					return nil, fmt.Errorf("exp serve: session %s tree differs from the single-tenant build", s.Label)
				}
				latSum += float64(s.LatencyNS()) / 1e9
			}
			counters := map[string]int64{
				"server_pages_total": fleet.TotalServerPages(),
				"shared_io_pages":    fleet.IOMeter().Count(sim.CtrServerPages),
			}
			x := float64(clients)
			e.Series[si].Points = append(e.Series[si].Points, Point{
				X: x, Seconds: float64(fleet.MakespanNS()) / 1e9, Counters: counters,
			})
			e.Series[si+2].Points = append(e.Series[si+2].Points, Point{
				X: x, Seconds: latSum / float64(clients), Counters: counters,
			})
		}
	}
	return e, nil
}
