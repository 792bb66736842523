// Naivebayes: the paper's §1 claim that the middleware serves any
// sufficient-statistics classifier, not only decision trees. Naive Bayes
// needs exactly one counts table — the root's — so it trains in a single
// server scan regardless of model size, and the middleware requires zero
// changes to support it.
//
// The example trains Naive Bayes and a depth-limited decision tree on the
// same census-like table via the same middleware and compares cost and
// accuracy, then inspects the model's per-class evidence for one row.
//
// Run with:
//
//	go run ./examples/naivebayes
package main

import (
	"fmt"
	"log"

	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/nb"
	"repro/internal/sim"
)

func main() {
	train, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 15000, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	test, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 5000, Seed: 22})
	if err != nil {
		log.Fatal(err)
	}

	// Naive Bayes through the middleware.
	meter := sim.NewDefaultMeter()
	eng := engine.New(meter, 0)
	srv, err := engine.NewServer(eng, "census", train)
	if err != nil {
		log.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{})
	if err != nil {
		log.Fatal(err)
	}
	model, err := nb.Train(m)
	if err != nil {
		log.Fatal(err)
	}
	m.Close()
	nbTime := meter.Now()

	// Decision tree through an identical, fresh stack.
	meter2 := sim.NewDefaultMeter()
	eng2 := engine.New(meter2, 0)
	srv2, err := engine.NewServer(eng2, "census", train)
	if err != nil {
		log.Fatal(err)
	}
	m2, err := mw.New(srv2, mw.Config{Staging: mw.StageMemoryOnly, Memory: train.Bytes()})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := dtree.Build(m2, dtree.Options{MaxDepth: 8, MinRows: 150})
	if err != nil {
		log.Fatal(err)
	}
	m2.Close()

	fmt.Printf("naive bayes:   train=%9v (1 scan)   test accuracy %.4f\n", nbTime, model.Accuracy(test))
	fmt.Printf("decision tree: train=%9v (%d scans)  test accuracy %.4f (%d nodes)\n",
		meter2.Now(), meter2.Count(sim.CtrServerScans), tree.Accuracy(test), tree.NumNodes)

	// Peek inside the NB model for the first test row.
	row := test.Rows[0]
	lps := model.LogPosteriors(row)
	fmt.Printf("\nfirst test row: predicted=%d, true=%d\n", model.Predict(row), row.Class())
	for c, lp := range lps {
		fmt.Printf("  class %d: prior %.3f, log-posterior %8.2f\n", c, model.Priors[c], lp)
	}
}
