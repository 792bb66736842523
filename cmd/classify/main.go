// Command classify builds a decision tree (or a Naive Bayes model) over a
// categorical dataset through the scalable classification middleware,
// reporting the model, its accuracy and the simulated cost of the build.
//
// The dataset comes from a CSV file (-csv; last column is the class) or from
// one of the built-in generators (-gen tree|gaussians|census).
//
// Examples:
//
//	classify -gen census -rows 20000 -staging file+memory -memory 4
//	classify -csv data.csv -measure gini -maxdepth 6 -rules
//	classify -gen gaussians -model nb
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/nb"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "classify: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		csvPath = flag.String("csv", "", "CSV file (header row; last column is the class)")
		gen     = flag.String("gen", "tree", "generator: tree, gaussians or census")
		rows    = flag.Int("rows", 10000, "rows for the generators")
		seed    = flag.Int64("seed", 1, "generator seed")

		model    = flag.String("model", "dtree", "model: dtree or nb")
		measure  = flag.String("measure", "entropy", "split measure: entropy, gini or gainratio")
		split    = flag.String("split", "binary", "split style: binary or multiway")
		maxDepth = flag.Int("maxdepth", 0, "maximum tree depth (0 = unlimited)")
		minRows  = flag.Int64("minrows", 0, "minimum rows to split a node")
		rules    = flag.Bool("rules", false, "print the tree as decision rules")
		prune    = flag.String("prune", "", "pruning: none (default), pessimistic or reduced-error")
		testFrac = flag.Float64("test", 0, "hold out this fraction as a test set (e.g. 0.3)")
		dotOut   = flag.String("dot", "", "write the tree in Graphviz DOT format to this file")
		cvFolds  = flag.Int("cv", 0, "additionally run k-fold cross-validation (e.g. 5)")

		staging = flag.String("staging", "memory", "staging: none, file, memory or file+memory")
		policy  = flag.String("policy", "split", "file policy: split, pernode or singleton")
		memory  = flag.Float64("memory", 0, "middleware memory budget in MB (0 = unlimited)")
		workers = flag.Int("workers", 1, "parallel scan workers per batch (1 = sequential)")

		traceOut    = flag.String("trace", "", "write a deterministic virtual-time trace of the build to this file")
		traceFormat = flag.String("trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or ndjson")
		explain     = flag.Bool("explain", false, "print the EXPLAIN ANALYZE-style build profile (per-span costs, critical path, skew)")
	)
	flag.Parse()

	ds, err := datagen.Load(*csvPath, *gen, *rows, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d rows, %d attributes, %d classes (%.2f MB)\n",
		ds.N(), ds.Schema.NumAttrs(), ds.Schema.Class.Card, float64(ds.Bytes())/(1<<20))

	train := ds
	var test *data.Dataset
	if *testFrac > 0 {
		if *testFrac >= 1 {
			return fmt.Errorf("-test must be in (0,1)")
		}
		train, test = dtree.Split(ds, *testFrac, *seed)
		fmt.Printf("split: %d train / %d test rows\n", train.N(), test.N())
	}

	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "cases", train)
	if err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1")
	}
	mcfg := mw.Config{Memory: int64(*memory * (1 << 20)), Workers: *workers}
	switch *staging {
	case "none":
		mcfg.Staging = mw.StageNone
	case "file":
		mcfg.Staging = mw.StageFileOnly
	case "memory":
		mcfg.Staging = mw.StageMemoryOnly
	case "file+memory":
		mcfg.Staging = mw.StageFileAndMemory
	default:
		return fmt.Errorf("unknown staging %q", *staging)
	}
	switch *policy {
	case "split":
		mcfg.FilePolicy = mw.FileSplitThreshold
	case "pernode":
		mcfg.FilePolicy = mw.FilePerNode
	case "singleton":
		mcfg.FilePolicy = mw.FileSingleton
	default:
		return fmt.Errorf("unknown file policy %q", *policy)
	}
	// Observability attaches to the engine (the middleware shares its tracer)
	// before the build and observes the meter without charging it: a trace
	// never changes the simulated cost or the model.
	var col *obs.Trace
	if *traceOut != "" || *explain {
		col = obs.NewTrace()
		eng.SetTracer(col.Proc("classify", meter))
	}
	m, err := mw.New(srv, mcfg)
	if err != nil {
		return err
	}
	defer m.Close()

	if *model == "nb" {
		nbm, err := nb.Train(m, 1)
		if err != nil {
			return err
		}
		fmt.Printf("naive bayes: trained on %d rows\n", nbm.Rows)
		fmt.Printf("training accuracy: %.4f\n", nbm.Accuracy(train))
		if test != nil {
			fmt.Printf("test accuracy:     %.4f\n", nbm.Accuracy(test))
		}
		fmt.Printf("simulated cost: %v\n", meter.Now())
		fmt.Printf("counters: %v\n", meter)
		if err := writeExplain(col, *explain); err != nil {
			return err
		}
		return writeTrace(col, *traceOut, *traceFormat)
	}

	opt := dtree.Options{MaxDepth: *maxDepth, MinRows: *minRows}
	switch *measure {
	case "entropy":
		opt.Measure = dtree.Entropy
	case "gini":
		opt.Measure = dtree.Gini
	case "gainratio":
		opt.Measure = dtree.GainRatio
	default:
		return fmt.Errorf("unknown measure %q", *measure)
	}
	switch *split {
	case "binary":
		opt.Split = dtree.BinarySplit
	case "multiway":
		opt.Split = dtree.MultiwaySplit
	default:
		return fmt.Errorf("unknown split style %q", *split)
	}

	tree, err := dtree.Build(m, opt)
	if err != nil {
		return err
	}
	fmt.Printf("tree: %d nodes, %d leaves, depth %d\n", tree.NumNodes, tree.NumLeaves, tree.MaxDepth)

	switch *prune {
	case "", "none":
	case "pessimistic":
		n := tree.PrunePessimistic(0)
		fmt.Printf("pessimistic pruning removed %d subtrees: %d nodes, %d leaves remain\n",
			n, tree.NumNodes, tree.NumLeaves)
	case "reduced-error":
		if test == nil {
			return fmt.Errorf("reduced-error pruning needs a holdout set: pass -test 0.3")
		}
		n := tree.PruneReducedError(test)
		fmt.Printf("reduced-error pruning removed %d subtrees: %d nodes, %d leaves remain\n",
			n, tree.NumNodes, tree.NumLeaves)
	default:
		return fmt.Errorf("unknown pruning %q", *prune)
	}

	fmt.Printf("training accuracy: %.4f\n", tree.Accuracy(train))
	if test != nil {
		cm := dtree.Evaluate(tree, test)
		fmt.Printf("test accuracy:     %.4f (%d held-out rows)\n", cm.Accuracy(), test.N())
		fmt.Println(cm)
	}
	fmt.Printf("simulated cost: %v\n", meter.Now())
	fmt.Printf("counters: %v\n", meter)
	if *cvFolds > 1 {
		cv, err := dtree.CrossValidate(ds, *cvFolds, opt, *seed)
		if err != nil {
			return err
		}
		fmt.Println(cv)
	}
	if *rules {
		fmt.Println("\nrules:")
		for _, r := range tree.Rules() {
			fmt.Println("  " + r)
		}
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := tree.WriteDot(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}
	if err := writeExplain(col, *explain); err != nil {
		return err
	}
	return writeTrace(col, *traceOut, *traceFormat)
}

// writeExplain prints the post-hoc build profile to stdout.
func writeExplain(col *obs.Trace, explain bool) error {
	if !explain {
		return nil
	}
	fmt.Println("\nexplain (virtual-time build profile):")
	return profile.Compute(col).WriteText(os.Stdout)
}

// writeTrace writes the requested trace file; an empty path is a no-op.
func writeTrace(col *obs.Trace, tracePath, traceFormat string) error {
	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := col.Write(f, traceFormat); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote trace %s (%s; load chrome format at https://ui.perfetto.dev)\n", tracePath, traceFormat)
	return nil
}
