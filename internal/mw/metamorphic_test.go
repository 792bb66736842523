package mw_test

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
)

// This file checks relations between builds that need no oracle: transforming
// the input in a way the paper's definitions are blind to must leave the tree
// the middleware grows unchanged, up to the transformation.

// buildThrough grows the tree of ds through a middleware over a fresh server
// and returns it with the build's meter. The staging directory must be empty
// after Close.
func buildThrough(t *testing.T, ds *data.Dataset, cfg mw.Config, opt dtree.Options) (*dtree.Tree, *sim.Meter) {
	t.Helper()
	meter := sim.NewDefaultMeter()
	srv, err := engine.NewServer(engine.New(meter, 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	m, err := mw.New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(m, opt)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%+v %+v: %v", cfg, opt, err)
	}
	if entries, err := os.ReadDir(cfg.Dir); err != nil || len(entries) != 0 {
		t.Errorf("%+v: staging dir after Close: %v (err %v)", cfg, entries, err)
	}
	return tree, meter
}

// scaledCounts returns a copy of the subtree at n with every row and class
// count multiplied by k.
func scaledCounts(n *dtree.Node, k int64) *dtree.Node {
	c := *n
	c.Rows *= k
	c.ClassCounts = slices.Clone(n.ClassCounts)
	for i := range c.ClassCounts {
		c.ClassCounts[i] *= k
	}
	c.Children = make([]*dtree.Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = scaledCounts(ch, k)
	}
	return &c
}

// TestMetamorphicRelations: on census and tree data, at Workers 1 and 4,
// unlimited, under an 8 KB budget that sheds requests and falls back to SQL,
// and with file+memory staging under a 128 KB budget that stages batches to
// files and memory, the middleware build
//   - grows the identical tree from a permutation of the rows, and
//   - grows the same tree, every count k times larger, from the rows repeated
//     k times with MinRows k times larger.
func TestMetamorphicRelations(t *testing.T) {
	census, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 4000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.TreeGenConfig{Seed: 5, Leaves: 30, Attrs: 8}.Normalize()
	gen.CasesPerLeaf = 50
	tree, _, err := datagen.GenerateTreeData(gen)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	cases := []struct {
		name string
		ds   *data.Dataset
		opt  dtree.Options
	}{
		{"census", census, dtree.Options{MaxDepth: 6, MinRows: 20}},
		{"tree", tree, dtree.Options{Measure: dtree.Gini, MinRows: 10}},
	}
	var fallbacks, files, memRows int64
	for _, c := range cases {
		rng := rand.New(rand.NewSource(int64(len(c.ds.Rows))))
		permuted := &data.Dataset{Schema: c.ds.Schema, Rows: slices.Clone(c.ds.Rows)}
		rng.Shuffle(len(permuted.Rows), func(i, j int) {
			permuted.Rows[i], permuted.Rows[j] = permuted.Rows[j], permuted.Rows[i]
		})
		repeated := &data.Dataset{Schema: c.ds.Schema}
		for _, r := range c.ds.Rows {
			for range k {
				repeated.Rows = append(repeated.Rows, r)
			}
		}
		kOpt := c.opt
		kOpt.MinRows *= k
		for _, cfg := range []mw.Config{
			{Workers: 1}, {Workers: 4}, {Memory: 8 << 10}, {Memory: 8 << 10, Workers: 4},
			{Staging: mw.StageFileAndMemory, Memory: 128 << 10, Workers: 1},
			{Staging: mw.StageFileAndMemory, Memory: 128 << 10, Workers: 4},
		} {
			name := fmt.Sprintf("%s/workers=%d/memory=%d", c.name, cfg.Workers, cfg.Memory)
			if cfg.Staging != mw.StageNone {
				name += "/staging=" + cfg.Staging.String()
			}
			t.Run(name, func(t *testing.T) {
				want, _ := buildThrough(t, c.ds, cfg, c.opt)
				if want.Root.Leaf {
					t.Fatal("the reference build is a single leaf: nothing to compare")
				}
				got, _ := buildThrough(t, permuted, cfg, c.opt)
				if err := sameNode("root", got.Root, want.Root); err != nil {
					t.Errorf("permuted rows: %v", err)
				}
				got, meter := buildThrough(t, repeated, cfg, kOpt)
				if err := sameNode("root", got.Root, scaledCounts(want.Root, k)); err != nil {
					t.Errorf("rows repeated %d times: %v", k, err)
				}
				fallbacks += meter.Count(sim.CtrSQLFallbacks)
				if cfg.Staging != mw.StageNone {
					files += meter.Count(sim.CtrFilesCreated)
					memRows += meter.Count(sim.CtrMemRowsRead)
				}
			})
		}
	}
	if fallbacks == 0 {
		t.Error("no request fell back to SQL under the 8 KB budget")
	}
	if files == 0 || memRows == 0 {
		t.Errorf("staged runs created %d files and read %d rows from memory: the relations did not run over staged sources", files, memRows)
	}
}
