// Package lsh implements the Locality-Sensitive Hashing substrate of
// BLAST (Section 3.1.2): MinHash signatures over token sets, banded
// indexing for candidate-pair generation, and the S-curve analysis used
// to pick the (rows, bands) configuration for a target Jaccard threshold.
package lsh

import (
	"hash/fnv"
	"math"

	"blast/internal/stats"
)

// TokenHash maps a token to a 64-bit point of the MinHash universe. All
// signatures must be built from the same token hashing, so it is exported
// and deterministic.
func TokenHash(token string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(token))
	return h.Sum64()
}

// Signer computes MinHash signatures of n hash functions, simulating n
// independent row permutations of the characteristic matrix (Leskovec,
// Rajaraman, Ullman; Mining of Massive Datasets). The n functions are
// derived from two strong base hashes by double hashing,
// h_i(t) = h1(t) + i*h2(t), which costs two mixes plus n additions per
// token instead of n mixes — the standard construction for large-scale
// MinHash (Kirsch & Mitzenmacher).
type Signer struct {
	n            int
	seedA, seedB uint64
}

// NewSigner returns a Signer with n hash functions drawn deterministically
// from seed.
func NewSigner(n int, seed uint64) *Signer {
	if n <= 0 {
		panic("lsh: NewSigner needs n > 0")
	}
	rng := stats.NewRNG(seed)
	return &Signer{n: n, seedA: rng.Uint64(), seedB: rng.Uint64()}
}

// mix64 is a strong 64-bit finalizer (splitmix64's output stage).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SignHashes returns the MinHash signature of a set of pre-hashed tokens.
// An empty set yields a signature of all math.MaxUint64, which never
// collides into a band bucket with a non-empty set's signature in
// practice and estimates Jaccard 0 against everything non-empty.
func (s *Signer) SignHashes(tokens []uint64) []uint64 {
	sig := make([]uint64, s.n)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, t := range tokens {
		h1 := mix64(t ^ s.seedA)
		h2 := mix64(t^s.seedB) | 1
		x := h1
		for i := range sig {
			if x < sig[i] {
				sig[i] = x
			}
			x += h2
		}
	}
	return sig
}

// SCurve returns the probability that two sets with Jaccard similarity s
// become a candidate pair under banding with r rows per band and b bands:
// 1 - (1 - s^r)^b (Figure 5 of the paper).
func SCurve(s float64, r, b int) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(b))
}

// Threshold approximates the similarity at the S-curve inflection point,
// (1/b)^(1/r): pairs above it are likely candidates, pairs below are not.
func Threshold(r, b int) float64 {
	if r <= 0 || b <= 0 {
		return 1
	}
	return math.Pow(1/float64(b), 1/float64(r))
}
