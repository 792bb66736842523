package serve

import (
	"database/sql"
	"net"
	"testing"
	"time"
)

// BenchmarkDriverDrainScore is one SCORE TABLE over 100 000 census rows per
// iteration, end to end on one connection: ccsql driver → wire → loopback
// daemon → fleet → engine scorer, every row scanned out through database/sql.
// It is the root-module view of cmd/bench's serve_score workload: ns/op is the
// whole drain, first-row-ms the mean wait from sending the statement to
// holding its first row (cmd/bench's driver.first_row_ms) — the part of the
// operation the client spends idle.
func BenchmarkDriverDrainScore(b *testing.B) {
	const rows = 100000
	d := NewDaemon(testServer(b, rows), DaemonConfig{Fleet: FleetConfig{Base: baseCfg(1), MaxSessions: 8, ScanSharing: true}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	defer func() {
		d.Drain(ln)
		if err := <-served; err != nil {
			b.Error(err)
		}
	}()
	db, err := sql.Open("ccsql", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	if _, err := db.Exec("BUILD TREE MAXDEPTH 8 MINROWS 50 MODEL m"); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var firstRow time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rs, err := db.Query("SCORE TABLE cases USING m")
		if err != nil {
			b.Fatal(err)
		}
		var class, c0, c1 int64
		n := 0
		for rs.Next() {
			if n == 0 {
				firstRow += time.Since(t0)
			}
			if err := rs.Scan(&class, &c0, &c1); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := rs.Err(); err != nil || n != rows {
			b.Fatalf("drained %d rows, %v", n, err)
		}
		rs.Close()
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(firstRow.Seconds()*1e3/float64(b.N), "first-row-ms")
}
