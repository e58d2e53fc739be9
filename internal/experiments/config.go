// Package experiments regenerates every table and figure of the BLAST
// paper's evaluation (Section 4) on the synthetic benchmark workloads of
// internal/datasets. Each experiment returns typed rows and can render
// itself as an aligned text table whose columns mirror the paper's.
//
// Absolute numbers differ from the paper — the workloads are synthetic
// reproductions of the benchmark shapes and the scale is configurable —
// but the comparative structure (who wins, by roughly what factor, where
// the crossovers fall) is the reproduction target. testdata/paper.golden
// pins the non-time columns of the paper's tables and figures at
// Config{Scale: 0.2, Seed: 42}.
package experiments

import (
	"fmt"

	"blast/internal/datasets"
	"blast/internal/model"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies the per-dataset default scales below (1.0 = the
	// defaults, chosen to keep the full suite minutes-fast on a laptop).
	Scale float64
	// Seed drives dataset generation and all stochastic steps.
	Seed uint64
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config { return Config{Scale: 1, Seed: 42} }

// defaultScales maps each benchmark to the fraction of its paper-scale
// size used at Config.Scale == 1. The ratios preserve each dataset's
// character (ar2's asymmetry, dbp's width) while keeping the largest
// runs tractable.
var defaultScales = map[string]float64{
	"ar1":    0.10,
	"ar2":    0.02,
	"prd":    0.20,
	"mov":    0.02,
	"dbp":    0.10,
	"census": 0.40,
	"cora":   0.40,
	"cddb":   0.05,
}

// load generates a benchmark dataset under the configuration.
func (c Config) load(name string) (*model.Dataset, error) {
	gen, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	base, ok := defaultScales[name]
	if !ok {
		base = 0.1
	}
	scale := base * c.Scale
	if scale <= 0 {
		return nil, fmt.Errorf("experiments: non-positive scale for %s", name)
	}
	return gen(scale, c.Seed), nil
}
