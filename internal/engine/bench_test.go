package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/predicate"
	"repro/internal/sim"
)

func benchServer(b *testing.B, rows int) *Server {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	s := data.NewSchema(8, 4, 4)
	ds := data.NewDataset(s)
	for i := 0; i < rows; i++ {
		r := make(data.Row, 9)
		for j := range r {
			r[j] = data.Value(rng.Intn(4))
		}
		ds.Append(r)
	}
	srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkLoad measures NewServer — the bulk load of a table — over 100k
// census rows, and reports what the loaded table keeps live after a GC.
func BenchmarkLoad(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 100000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	var live uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		live = after.HeapAlloc - before.HeapAlloc
		runtime.KeepAlive(srv)
		b.StartTimer()
	}
	b.ReportMetric(float64(live)/(1<<20), "live-MB")
}

// BenchmarkCursorScan measures the firehose cursor with a pushed-down
// filter over 10k rows.
func BenchmarkCursorScan(b *testing.B) {
	srv := benchServer(b, 10000)
	filter := predicate.Or(predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := srv.OpenScan(filter)
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		cur.Close()
	}
}

// BenchmarkGroupByQuery measures one GROUP BY COUNT(*) statement end to end
// (parse, plan, scan, aggregate) over 10k rows.
func BenchmarkGroupByQuery(b *testing.B) {
	srv := benchServer(b, 10000)
	e := srv.Engine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT A1, class, COUNT(*) FROM cases WHERE A2 <> 3 GROUP BY A1, class"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecPoint measures Engine.Exec on the two point-statement shapes
// of cmd/bench's serve_mixed workload — a three-equality CLASSIFY lookup and
// a filtered GROUP BY count — and on the unfiltered GROUP BY count, over a
// 50k-row census table.
func BenchmarkExecPoint(b *testing.B) {
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 50000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	s := ds.Schema
	attrs := make([]string, s.NumAttrs())
	for i := range attrs {
		attrs[i] = s.Attrs[i].Name
	}
	rng := rand.New(rand.NewSource(7))
	stmts := map[string][]string{}
	for i := 0; i < 16; i++ {
		stmts["classify"] = append(stmts["classify"], fmt.Sprintf(
			"SELECT CLASSIFY(m, %s) FROM cases WHERE occupation = %d AND education = %d AND country = %d",
			strings.Join(attrs, ", "), rng.Intn(12), rng.Intn(10), rng.Intn(10)))
		stmts["count"] = append(stmts["count"], fmt.Sprintf(
			"SELECT income, COUNT(*) FROM cases WHERE education = %d GROUP BY income", rng.Intn(10)))
	}
	stmts["countall"] = []string{"SELECT income, COUNT(*) FROM cases GROUP BY income"}
	for _, kind := range []string{"classify", "count", "countall"} {
		b.Run(kind, func(b *testing.B) {
			srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
			if err != nil {
				b.Fatal(err)
			}
			e := srv.Engine()
			if err := e.RegisterModel(stumpModel("m", s.NumAttrs())); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Exec(stmts[kind][i%len(stmts[kind])]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
