package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
)

// ClusteredConfig controls the clustered (value-correlated row placement)
// generator: rows are physically ordered by a "region" attribute, so an
// equality filter on the region matches one contiguous slab of heap pages.
// This is the canonical skew workload for partitioned scans — with
// equal-width splits, one part receives essentially every matching row (and
// pays every transmit/processing cost) while the others scan and discard,
// making that part the straggler; zone maps skip whole groups of it. Real tables look like this
// whenever they are loaded in an order correlated with an attribute:
// append-ordered logs by day, customers loaded per territory, and so on.
type ClusteredConfig struct {
	Rows int
	Seed int64
	// Regions is the cardinality of the clustering attribute (attribute 0,
	// "region"); rows are laid out in Regions contiguous equal slabs.
	Regions int
	// Attrs and Values size the remaining independent attributes.
	Attrs  int
	Values int
	// Noise is the probability a row's class label is flipped.
	Noise float64
}

// Normalize fills unset fields.
func (c ClusteredConfig) Normalize() ClusteredConfig {
	if c.Rows == 0 {
		c.Rows = 24000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Regions == 0 {
		c.Regions = 8
	}
	if c.Attrs == 0 {
		c.Attrs = 5
	}
	if c.Values == 0 {
		c.Values = 4
	}
	if c.Noise == 0 {
		c.Noise = 0.05
	}
	return c
}

// GenerateClustered draws the clustered dataset: attribute 0 ("region")
// partitions the row order into contiguous equal slabs, the remaining
// attributes are sampled independently, and the binary class label follows a
// noisy rule over the region and the first attributes so trees split on
// meaningful structure.
func GenerateClustered(cfg ClusteredConfig) (*data.Dataset, error) {
	cfg = cfg.Normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))

	schema := &data.Schema{Class: data.Attribute{Name: "class", Card: 2}}
	schema.Attrs = append(schema.Attrs, data.Attribute{Name: "region", Card: cfg.Regions})
	for i := 0; i < cfg.Attrs; i++ {
		schema.Attrs = append(schema.Attrs, data.Attribute{
			Name: fmt.Sprintf("a%d", i+1),
			Card: cfg.Values,
		})
	}

	ds := data.NewDataset(schema)
	ncols := schema.NumCols()
	for r := 0; r < cfg.Rows; r++ {
		row := make(data.Row, ncols)
		// Contiguous placement: row r lives in region r*Regions/Rows.
		region := r * cfg.Regions / cfg.Rows
		row[0] = data.Value(region)
		for i := 1; i <= cfg.Attrs; i++ {
			row[i] = data.Value(rng.Intn(cfg.Values))
		}
		score := region
		if cfg.Attrs >= 1 {
			score += int(row[1]) * 2
		}
		if cfg.Attrs >= 2 {
			score += int(row[2])
		}
		cls := data.Value(score % 2)
		if rng.Float64() < cfg.Noise {
			cls = 1 - cls
		}
		row[ncols-1] = cls
		ds.Rows = append(ds.Rows, row)
	}
	return ds, nil
}
