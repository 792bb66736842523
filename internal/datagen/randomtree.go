// Package datagen implements the paper's three data sources (§5.1): data
// generated from random decision trees, data from mixtures of Gaussians
// discretized to categorical bins, and a synthetic census-like dataset
// standing in for the U.S. Census Bureau database the paper benchmarks on.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
)

// TreeGenConfig controls the random-tree data generator (§5.1.1). Defaults
// (applied by Normalize) follow §5.1.3: 25 attributes, 4 values per
// attribute with standard deviation 4, 10 classes, complete splits, zero
// standard deviation on cases per leaf.
type TreeGenConfig struct {
	Leaves        int     // leaves in the generating tree (tree size)
	Attrs         int     // number of predictor attributes
	Values        int     // mean number of values per attribute
	ValuesStdDev  float64 // stddev of values per attribute
	Classes       int     // number of class values
	CasesPerLeaf  int     // mean cases generated per leaf
	CasesStdDev   float64 // stddev of cases per leaf (fraction of mean if < 1? no: absolute)
	Skew          float64 // 0 = balanced expansion; 1 = always expand the deepest leaf (lop-sided)
	ClassNoise    float64 // fraction of rows whose class is re-drawn uniformly
	CompleteSplit bool    // split generating nodes on every value of the chosen attribute
	Seed          int64
}

// Normalize fills unset fields with the paper's defaults.
func (c TreeGenConfig) Normalize() TreeGenConfig {
	if c.Leaves == 0 {
		c.Leaves = 500
	}
	if c.Attrs == 0 {
		c.Attrs = 25
	}
	if c.Values == 0 {
		c.Values = 4
		if c.ValuesStdDev == 0 {
			c.ValuesStdDev = 4
		}
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.CasesPerLeaf == 0 {
		c.CasesPerLeaf = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.CompleteSplit = true
	return c
}

// genNode is a node of the generating tree.
type genNode struct {
	parent   *genNode
	attr     int        // split attribute (internal nodes)
	val      data.Value // edge value from the parent
	depth    int
	children []*genNode
	class    data.Value // leaf label
	used     map[int]bool
}

// GenerateTreeData builds a random generating tree per the configuration and
// draws a dataset from it, so that "the effect of applying classification on
// the data will be the given decision tree" (§5.1.1). It returns the dataset
// and the number of leaves actually created (expansion stops early if every
// path exhausts its attributes).
func GenerateTreeData(cfg TreeGenConfig) (*data.Dataset, int, error) {
	cfg = cfg.Normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-attribute cardinalities: mean cfg.Values, stddev cfg.ValuesStdDev,
	// clamped to [2, 32].
	schema := &data.Schema{Class: data.Attribute{Name: "class", Card: cfg.Classes}}
	for i := 0; i < cfg.Attrs; i++ {
		card := int(math.Round(float64(cfg.Values) + rng.NormFloat64()*cfg.ValuesStdDev))
		if card < 2 {
			card = 2
		}
		if card > 32 {
			card = 32
		}
		schema.Attrs = append(schema.Attrs, data.Attribute{Name: fmt.Sprintf("A%d", i+1), Card: card})
	}

	root := &genNode{used: map[int]bool{}}
	// open holds leaves still eligible for expansion; closed holds leaves
	// whose paths have exhausted every attribute.
	open := []*genNode{root}
	var closed []*genNode

	// Grow until the requested number of leaves (each complete split on an
	// attribute of cardinality k replaces one leaf with k leaves) or until
	// every path is exhausted.
	for len(open)+len(closed) < cfg.Leaves && len(open) > 0 {
		// Pick the leaf to expand: with probability Skew the deepest open
		// leaf (producing long lop-sided trees), otherwise uniform.
		li := rng.Intn(len(open))
		if cfg.Skew > 0 && rng.Float64() < cfg.Skew {
			li = 0
			for i, l := range open {
				if l.depth > open[li].depth {
					li = i
				}
			}
		}
		n := open[li]

		// Pick an attribute unused on this path.
		var candidates []int
		for a := 0; a < cfg.Attrs; a++ {
			if !n.used[a] {
				candidates = append(candidates, a)
			}
		}
		if len(candidates) == 0 {
			// This path is final; retire it from the expansion pool.
			open = append(open[:li], open[li+1:]...)
			closed = append(closed, n)
			continue
		}
		a := candidates[rng.Intn(len(candidates))]

		card := schema.Attrs[a].Card
		n.attr = a
		for v := 0; v < card; v++ {
			child := &genNode{
				parent: n,
				val:    data.Value(v),
				depth:  n.depth + 1,
				used:   map[int]bool{a: true},
			}
			//repolint:ordered set-to-set copy is order-independent
			for k := range n.used {
				child.used[k] = true
			}
			n.children = append(n.children, child)
		}
		open = append(open[:li], open[li+1:]...)
		open = append(open, n.children...)
	}
	leaves := append(open, closed...)

	// Label leaves with classes (round-robin with random offset keeps all
	// classes populated, then shuffle by random assignment for larger leaf
	// counts).
	for i, l := range leaves {
		if i < cfg.Classes {
			l.class = data.Value(i)
		} else {
			l.class = data.Value(rng.Intn(cfg.Classes))
		}
	}

	// Draw rows: fix the attributes on the leaf's path, randomize the rest.
	ds := data.NewDataset(schema)
	ncols := schema.NumCols()
	for _, l := range leaves {
		cases := cfg.CasesPerLeaf
		if cfg.CasesStdDev > 0 {
			cases = int(math.Round(float64(cfg.CasesPerLeaf) + rng.NormFloat64()*cfg.CasesStdDev))
			if cases < 1 {
				cases = 1
			}
		}
		// Collect the path constraints.
		type fixed struct {
			attr int
			val  data.Value
		}
		var path []fixed
		for n := l; n.parent != nil; n = n.parent {
			path = append(path, fixed{attr: n.parent.attr, val: n.val})
		}
		for c := 0; c < cases; c++ {
			row := make(data.Row, ncols)
			for a := 0; a < cfg.Attrs; a++ {
				row[a] = data.Value(rng.Intn(schema.Attrs[a].Card))
			}
			for _, f := range path {
				row[f.attr] = f.val
			}
			cls := l.class
			if cfg.ClassNoise > 0 && rng.Float64() < cfg.ClassNoise {
				cls = data.Value(rng.Intn(cfg.Classes))
			}
			row[ncols-1] = cls
			ds.Rows = append(ds.Rows, row)
		}
	}

	// Shuffle rows so physical order carries no class signal.
	rng.Shuffle(len(ds.Rows), func(i, j int) { ds.Rows[i], ds.Rows[j] = ds.Rows[j], ds.Rows[i] })
	return ds, len(leaves), nil
}
