// Command sqlsh is an interactive shell over the embedded SQL engine — the
// simulated "SQL Server 7.0" backend the middleware runs against. It is
// useful for inspecting generated datasets and for issuing the paper's
// UNION-of-GROUP-BY counts queries by hand.
//
// With -csv or -gen a dataset is preloaded into table "cases". Statements
// are terminated by newline; the shell prints the result set plus the
// simulated cost of each statement. Query errors go to stderr and make the
// exit status nonzero; -e aborts on the first error instead of continuing
// (the scripting default is to keep going, like psql without ON_ERROR_STOP).
//
// Every statement goes through the same dispatcher the wire daemon frames
// (serve.Dispatcher), in process: BUILD TREE grows a classifier over "cases"
// through the middleware and MODEL registers it in the engine's model
// catalog, after which SCORE TABLE streams the vectorized batch path and
// CLASSIFY evaluates the model per row inside any SELECT — with the columns,
// rows and errors a ccsql client of cmd/served would see.
//
// Example session:
//
//	$ sqlsh -gen census -rows 5000
//	sql> SELECT income, COUNT(*) FROM cases GROUP BY income
//	sql> BUILD TREE MAXDEPTH 4 MODEL m
//	sql> SCORE TABLE cases USING m WORKERS 4
//	sql> SELECT CLASSIFY(m, age, workclass, education, marital, occupation,
//	     relationship, race, sex, capgain, caploss, hours, country) FROM cases LIMIT 3
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errStatementFailed) {
			fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
		}
		os.Exit(1)
	}
}

// errStatementFailed marks "one or more statements errored": the failures
// were already reported to stderr as they happened, so main only sets the
// exit status.
var errStatementFailed = errors.New("statement failed")

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sqlsh", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvPath := fs.String("csv", "", "preload this CSV into table 'cases'")
	gen := fs.String("gen", "", "preload a generated dataset: tree, gaussians or census")
	rows := fs.Int("rows", 5000, "rows for -gen")
	seed := fs.Int64("seed", 1, "seed for -gen")
	abort := fs.Bool("e", false, "abort on the first statement error instead of continuing")
	if err := fs.Parse(args); err != nil {
		return err
	}

	eng := engine.New(sim.NewDefaultMeter(), 0)

	var srv *engine.Server
	if *csvPath != "" || *gen != "" {
		ds, err := datagen.Load(*csvPath, *gen, *rows, *seed)
		if err != nil {
			return err
		}
		srv, err = engine.NewServer(eng, "cases", ds)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %d rows into table cases: %s\n", ds.N(), ds.Schema)
	}

	disp := serve.NewDispatcher(eng, srv, serve.DaemonConfig{})
	defer disp.Close()

	failed := false
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(stdout, "sql> ")
	for sc.Scan() {
		stmt := strings.TrimSpace(sc.Text())
		switch {
		case stmt == "":
		case stmt == "\\q" || stmt == "exit" || stmt == "quit":
			return exitStatus(failed)
		case stmt == "\\d":
			for _, n := range eng.TableNames() {
				t, _ := eng.Table(n)
				fmt.Fprintf(stdout, "%s (%s): %d rows, %d pages\n", n, strings.Join(t.Cols, ", "), t.NumRows(), t.NumPages())
			}
		case stmt == "\\models":
			for _, n := range eng.ModelNames() {
				m, err := eng.Model(n)
				if err != nil {
					fmt.Fprintf(stderr, "sqlsh: model %s: %v\n", n, err)
					continue
				}
				fmt.Fprintf(stdout, "%s: %d nodes, %d attrs, %d classes\n", n, len(m.Nodes), m.Cols, m.Classes)
			}
		default:
			var rs *engine.ResultSet
			res, err := disp.Execute(stmt)
			if err == nil {
				rs, err = res.Rows() // a fleet-scored statement's verdict arrives with its last row
			}
			if err != nil {
				fmt.Fprintf(stderr, "sqlsh: error: %v\n", err)
				failed = true
				if *abort {
					return errStatementFailed
				}
			} else {
				if rs != nil {
					fmt.Fprint(stdout, rs)
					fmt.Fprintf(stdout, "(%d rows) ", len(rs.Rows))
				}
				fmt.Fprintf(stdout, "simulated cost: %v\n", res.Cost())
			}
		}
		fmt.Fprint(stdout, "sql> ")
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return exitStatus(failed)
}

func exitStatus(failed bool) error {
	if failed {
		return errStatementFailed
	}
	return nil
}
