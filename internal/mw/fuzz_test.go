package mw_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/dtree"
	"repro/internal/mw"
)

// fuzzTable generates the table of one FuzzBuildConfig input: 1–8 attributes,
// 2–4 classes and up to 300 rows drawn from seed. card 0 gives every
// attribute its own cardinality (1, 2, 4, 16 or all-distinct); any other card
// is every attribute's cardinality, and a column whose cardinality reaches the
// row count is all-distinct, a permutation of the rows. Most classes follow a
// weighted sum of the attributes, so the trees split.
func fuzzTable(seed uint64, attrs, classes uint8, rows uint16, card uint16) *data.Dataset {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(rows % 301)
	s := &data.Schema{Class: data.Attribute{Name: "class", Card: 2 + int(classes%3)}}
	for a := range 1 + int(attrs%8) {
		c := int(card)
		if c == 0 {
			c = []int{1, 2, 4, 16, 1 << 15}[rng.Intn(5)]
		}
		s.Attrs = append(s.Attrs, data.Attribute{Name: fmt.Sprintf("A%d", a+1), Card: c})
	}
	ds := data.NewDataset(s)
	for range n {
		ds.Rows = append(ds.Rows, make(data.Row, s.NumCols()))
	}
	weights := make([]int, len(s.Attrs))
	for a, at := range s.Attrs {
		weights[a] = rng.Intn(3)
		var perm []int
		if at.Card >= n {
			perm = rng.Perm(n)
		}
		for i, r := range ds.Rows {
			if perm != nil {
				r[a] = data.Value(perm[i])
			} else {
				r[a] = data.Value(rng.Intn(at.Card))
			}
		}
	}
	for _, r := range ds.Rows {
		c := rng.Intn(s.Class.Card)
		if rng.Intn(4) > 0 {
			c = 0
			for a, w := range weights {
				c += w * int(r[a])
			}
		}
		r[s.ClassIndex()] = data.Value(c % s.Class.Card)
	}
	return ds
}

// fuzzConfig decodes the middleware configuration and build options of one
// input from conf: staging mode, server access, Workers 1/2/4, a memory
// budget from unlimited through ones that stage everything to one under two
// counts-table entries that sends every node to the SQL fallback, the
// measure, binary or multiway splits and MaxDepth.
func fuzzConfig(conf uint16, bytes int64) (mw.Config, dtree.Options) {
	cfg := mw.Config{
		Staging: mw.StagingMode(conf & 3),
		Workers: []int{1, 2, 4, 4}[conf>>2&3],
		Access:  mw.ServerAccess(conf >> 4 & 3),
		Memory:  []int64{0, 4 * bytes, bytes / 4, bytes / 16, 12 << 10, 1 << 10, 64, 0}[conf>>6&7],
	}
	opt := dtree.Options{
		Measure:  []dtree.Measure{dtree.Entropy, dtree.Gini, dtree.GainRatio, dtree.Entropy}[conf>>9&3],
		MaxDepth: int(conf >> 12 & 7),
	}
	if conf>>11&1 == 1 {
		opt.Split = dtree.MultiwaySplit
	}
	return cfg, opt
}

// FuzzBuildConfig grows a tree through the middleware over a generated table
// of fuzzed shape under a fuzzed configuration and judges it by the reference
// builder: every input grows the reference tree, node for node. Every input
// is a valid table and configuration, so an error fails it as a panic would.
// After Close, the staging directory is empty and the process pool holds
// nothing of the build. The seed corpus (testdata/fuzz/FuzzBuildConfig) holds an empty, a
// one-row, a single-value and an all-distinct table; the draws added below
// sample the rest.
func FuzzBuildConfig(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	for range 24 {
		f.Add(rng.Uint64(), uint8(rng.Intn(8)), uint8(rng.Intn(3)), uint16(rng.Intn(301)), uint16(rng.Intn(3)*rng.Intn(20)), uint16(rng.Intn(1<<15)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, attrs, classes uint8, rows, card, conf uint16) {
		ds := fuzzTable(seed, attrs, classes, rows, card)
		cfg, opt := fuzzConfig(conf, ds.Bytes())
		got, _ := buildThrough(t, ds, cfg, opt)
		if err := sameNode("root", got.Root, refBuild(ds, opt).Root); err != nil {
			t.Errorf("%+v %+v: %v", cfg, opt, err)
		}
		if leaks := mw.PooledScratchLeaks(); len(leaks) > 0 {
			t.Errorf("%+v: the pool still holds %d references into the closed build: %v", cfg, len(leaks), leaks)
		}
	})
}
