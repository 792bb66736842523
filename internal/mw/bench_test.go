package mw

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// BenchmarkFullTreeBuildStaged measures a complete middleware-driven tree
// build with memory staging over ~4k rows (wall time; virtual time is
// covered by the root figure benches).
func BenchmarkFullTreeBuildStaged(b *testing.B) {
	ds := randDataset(4000, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			b.Fatal(err)
		}
		m, err := New(srv, Config{Staging: StageMemoryOnly, Memory: 8 * ds.Bytes()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := driveToCompletion(m, ds); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		m.Close()
		b.StartTimer()
	}
}

// driveToCompletion services the root request and one full level, the
// middleware-side hot path, without the tree client's split logic.
func driveToCompletion(m *Middleware, ds interface{ N() int }) error {
	if err := m.Enqueue(&Request{
		NodeID: 0, ParentID: -1,
		Attrs: []int{0, 1, 2, 3}, Rows: int64(ds.N()), EstCC: 4096,
	}); err != nil {
		return err
	}
	for m.Pending() > 0 {
		results, err := m.Step()
		if err != nil {
			return err
		}
		for _, r := range results {
			m.CloseNode(r.Req.NodeID)
		}
	}
	return nil
}

// BenchmarkStepSingleScan measures one scheduler+scan round servicing the
// root from the server.
func BenchmarkStepSingleScan(b *testing.B) {
	ds := randDataset(4000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			b.Fatal(err)
		}
		m, err := New(srv, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Enqueue(&Request{NodeID: 0, ParentID: -1, Attrs: []int{0, 1, 2, 3}, Rows: int64(ds.N()), EstCC: 4096}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Step(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		m.Close()
		b.StartTimer()
	}
}

// BenchmarkFallbackCounts measures one §4.1.1 SQL fallback in wall clock: the
// counts statement (CountsSQL) of a depth-3 node — one UNION arm per attribute
// off its path plus the class arm — through Server.Exec over 50k census rows,
// its arms on one lane and on two.
func BenchmarkFallbackCounts(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 50000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}
	path := predicate.Conj{ // marital = 0, education = 1, sex = 0
		{Attr: 3, Op: predicate.Eq, Val: 0},
		{Attr: 2, Op: predicate.Eq, Val: 1},
		{Attr: 7, Op: predicate.Eq, Val: 0},
	}
	var attrs []int
	for a := range ds.Schema.NumAttrs() {
		if !slices.ContainsFunc(path, func(c predicate.Cond) bool { return c.Attr == a }) {
			attrs = append(attrs, a)
		}
	}
	sql := CountsSQL(ds.Schema, "cases", path, attrs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}
