// Package stats provides the statistical primitives of BLAST: Shannon
// entropy (Definition 3 of the paper), the 2x2 contingency table of
// profile co-occurrence (Table 1) with Pearson's chi-squared statistic,
// and a small deterministic RNG used by the LSH and dataset-generation
// substrates.
package stats

import "math"

// Entropy returns the Shannon entropy (base 2) of the empirical
// distribution given by counts. Non-positive counts are ignored.
//
// H(X) = - sum_x p(x) log2 p(x)
//
// The base only scales the result and therefore does not change any of
// the orderings BLAST derives from entropies; base 2 is the conventional
// "bits" unit.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	ft := float64(total)
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log2(p)
	}
	if h < 0 { // guard against -0 from rounding
		return 0
	}
	return h
}

// NOTE: there is deliberately no map-based entropy helper. Summing a
// frequency map in iteration order makes the result vary in its last
// bits from run to run over identical data (floating-point addition is
// not associative), which breaks the bitwise-equivalence contracts
// everything downstream of an entropy is held to. Callers materialize
// counts in a data-determined order and use Entropy.

// Mean returns the arithmetic mean of xs, or 0 for an empty slice. It is
// the aggregation used for cluster entropies (H̄(C_k), Section 3.1.3).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
