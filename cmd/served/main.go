// Command served is the network daemon over the embedded SQL engine and the
// classification middleware: it preloads one dataset into table "cases" and
// serves the wire protocol of internal/wire on a TCP address. Clients — the
// ccsql database/sql driver, or anything speaking the protocol — submit
// statements of the internal/sqlparser grammar: SQL, SCORE TABLE, and
//
//	BUILD TREE [MAXDEPTH n] [MINROWS n] [MODEL name] [OUTPUT STATS|TREE|TRACE]
//
// Builds submitted by concurrent clients run as one multi-tenant fleet
// cohort: each gets a fixed slice -memory / -max-sessions of the memory
// budget at admission and, with -scan-sharing (the default), their table
// scans share physical page reads.
// SIGTERM or SIGINT drains gracefully: in-flight statements complete and
// flush before the process exits.
//
// Example:
//
//	$ served -gen census -rows 20000 -addr 127.0.0.1:7744 &
//	$ # any database/sql client: sql.Open("ccsql", "127.0.0.1:7744")
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "served: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", "127.0.0.1:7744", "TCP listen address")
	csvPath := fs.String("csv", "", "preload this CSV into table 'cases'")
	gen := fs.String("gen", "census", "preload a generated dataset: tree, gaussians or census")
	rows := fs.Int("rows", 20000, "rows for -gen")
	seed := fs.Int64("seed", 1, "seed for -gen")
	memory := fs.Int64("memory", 0, "total middleware memory budget in bytes; each build gets a fixed slice memory / max-sessions at admission (0 = unlimited)")
	maxSessions := fs.Int("max-sessions", 8, "concurrent build sessions; arrivals beyond the cap wait (0 = unlimited)")
	scanSharing := fs.Bool("scan-sharing", true, "share physical table scans across concurrent builds")
	stageDir := fs.String("dir", "", "directory for middleware staging files (default: OS temp dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := datagen.Load(*csvPath, *gen, *rows, *seed)
	if err != nil {
		return err
	}
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", ds)
	if err != nil {
		return err
	}

	cfg := serve.DaemonConfig{
		Fleet: serve.FleetConfig{
			Base: mw.Config{
				Staging: mw.StageFileAndMemory,
				Dir:     *stageDir,
			},
			TotalMemory: *memory,
			MaxSessions: *maxSessions,
			ScanSharing: *scanSharing,
		},
	}
	// The daemon builds a fleet per cohort; refuse a config it would refuse
	// before listening, not on every BUILD and SCORE.
	if _, err := serve.NewFleet(srv, nil, cfg.Fleet); err != nil {
		return err
	}
	d := serve.NewDaemon(srv, cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("served: listening on %s (table cases, %d rows: %s)\n", ln.Addr(), ds.N(), ds.Schema)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- d.Serve(ln) }()
	select {
	case <-ctx.Done():
		fmt.Println("served: draining")
		d.Drain(ln)
		<-errCh
		return nil
	case err := <-errCh:
		return err
	}
}
