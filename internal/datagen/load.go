package datagen

import (
	"fmt"
	"os"

	"repro/internal/data"
)

// Load is the dataset loader the commands share: the CSV at csvPath when one
// is given (last column is the class), otherwise about rows rows from the
// named generator — tree, gaussians or census — at its §5.1.3 defaults.
func Load(csvPath, gen string, rows int, seed int64) (*data.Dataset, error) {
	if csvPath != "" {
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return data.ReadCSV(f)
	}
	switch gen {
	case "tree":
		cfg := TreeGenConfig{Seed: seed}.Normalize()
		cfg.CasesPerLeaf = max(1, rows/cfg.Leaves)
		ds, _, err := GenerateTreeData(cfg)
		return ds, err
	case "gaussians":
		cfg := GaussianConfig{Seed: seed}.Normalize()
		cfg.PerClass = max(1, rows/cfg.Components)
		return GenerateGaussians(cfg)
	case "census":
		return GenerateCensus(CensusConfig{Rows: rows, Seed: seed})
	}
	return nil, fmt.Errorf("unknown generator %q (want tree, gaussians or census)", gen)
}
