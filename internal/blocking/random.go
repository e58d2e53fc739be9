package blocking

import (
	"fmt"
	"slices"

	"blast/internal/model"
	"blast/internal/stats"
)

// RandomCollection builds a randomized, structurally valid (Validate-clean)
// block collection: profiles scattered over blocks of varying size, with
// varied entropies including zero. It exists for property-style tests and
// benchmarks — notably the engine-equivalence harness, which asserts that
// the CSR kernels and the edge-list reference agree on arbitrary collections —
// and draws all randomness from the caller's seeded generator, so a given
// (rng state, shape) is fully reproducible.
//
// For clean-clean collections the profile space is split in half: ids
// below the split belong to E1, the rest to E2, and every block gets at
// least one profile from each side.
//
//blast:allow deadapi -- generator of the property tests: metablocking TestEngineEquivalenceRandomized, graph TestBuildCSRParallelMatchesSerial, prune, weights and blocking append tests
func RandomCollection(rng *stats.RNG, kind model.Kind, profiles, blocks int) *Collection {
	split := 0
	if kind == model.CleanClean {
		split = profiles / 2
	}
	// sample draws n distinct ids from [lo, hi).
	sample := func(lo, hi, n int) []int32 {
		if n > hi-lo {
			n = hi - lo
		}
		seen := make(map[int32]bool, n)
		out := make([]int32, 0, n)
		for len(out) < n {
			id := int32(lo + rng.Intn(hi-lo))
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		slices.Sort(out)
		return out
	}
	out := make([]Block, 0, blocks)
	for b := 0; b < blocks; b++ {
		// Entropy 0 every few blocks exercises the EntropySum == 0 path
		// of the entropy-scaled weighting schemes.
		entropy := 0.0
		if rng.Intn(4) > 0 {
			entropy = 0.1 + 2*rng.Float64()
		}
		blk := Block{Key: fmt.Sprintf("b%05d", b), Entropy: entropy}
		if kind == model.CleanClean {
			blk.P1 = sample(0, split, 1+rng.Intn(5))
			blk.P2 = sample(split, profiles, 1+rng.Intn(5))
		} else {
			blk.P1 = sample(0, profiles, 2+rng.Intn(6))
		}
		out = append(out, blk)
	}
	return FromBlocks(kind, profiles, split, out)
}
