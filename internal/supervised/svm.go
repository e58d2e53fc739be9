// Package supervised implements supervised meta-blocking (Papadakis,
// Papastefanatos, Koutrika; PVLDB 7(14), 2014), the learned comparator
// BLAST is evaluated against: every blocking-graph edge is described by a
// vector of schema-agnostic features and a binary classifier decides
// which comparisons to retain (a WEP-style global decision). The paper
// uses an SVM with a linear kernel; this package provides a linear SVM
// trained with Pegasos-style stochastic sub-gradient descent on the hinge
// loss — no external ML dependency.
package supervised

import (
	"math"

	"blast/internal/stats"
)

// SVM is a linear classifier w.x + b with feature standardization folded
// into the stored weights at training time.
type SVM struct {
	W    []float64
	B    float64
	mean []float64
	std  []float64
}

// The Pegasos optimizer's settings.
const (
	lambda = 1e-4 // L2 regularization strength
	epochs = 40   // passes over the training set
)

// Train fits a linear SVM on feature vectors xs with labels ys (+1/-1);
// seed drives the sampling order (deterministic). Features are
// standardized to zero mean / unit variance internally, so callers can
// mix scales freely. It panics on empty or ragged input.
func Train(xs [][]float64, ys []int, seed uint64) *SVM {
	if len(xs) == 0 || len(xs) != len(ys) {
		panic("supervised: bad training set")
	}
	dim := len(xs[0])
	for _, x := range xs {
		if len(x) != dim {
			panic("supervised: ragged features")
		}
	}

	mean := make([]float64, dim)
	std := make([]float64, dim)
	for _, x := range xs {
		for j, v := range x {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(xs))
	}
	for _, x := range xs {
		for j, v := range x {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(xs)))
		if std[j] < 1e-12 {
			std[j] = 1
		}
	}
	norm := func(x []float64, j int) float64 { return (x[j] - mean[j]) / std[j] }

	// Pegasos on the augmented space [standardized x, 1]: the bias is the
	// last weight, regularized like the rest, which keeps the 1/(lambda*t)
	// step schedule stable.
	w := make([]float64, dim+1)
	avg := make([]float64, dim+1)
	avgCount := 0
	rng := stats.NewRNG(seed + 1)
	t := 0
	for epoch := 0; epoch < epochs; epoch++ {
		for range xs {
			t++
			i := rng.Intn(len(xs))
			eta := 1 / (lambda * float64(t))
			x, y := xs[i], float64(ys[i])
			score := w[dim]
			for j := 0; j < dim; j++ {
				score += w[j] * norm(x, j)
			}
			// Sub-gradient step: shrink + (on margin violation) push.
			shrink := 1 - eta*lambda
			for j := range w {
				w[j] *= shrink
			}
			if y*score < 1 {
				for j := 0; j < dim; j++ {
					w[j] += eta * y * norm(x, j)
				}
				w[dim] += eta * y
			}
			// Average the iterates of the second half of training
			// (averaged Pegasos: lower-variance final model).
			if epoch >= epochs/2 {
				for j := range w {
					avg[j] += w[j]
				}
				avgCount++
			}
		}
	}
	if avgCount > 0 {
		for j := range avg {
			avg[j] /= float64(avgCount)
		}
		w = avg
	}
	return &SVM{W: w[:dim], B: w[dim], mean: mean, std: std}
}

// Score returns the signed margin of a feature vector.
func (m *SVM) Score(x []float64) float64 {
	s := m.B
	for j, w := range m.W {
		s += w * (x[j] - m.mean[j]) / m.std[j]
	}
	return s
}

// Predict classifies a feature vector: true = retain the comparison.
func (m *SVM) Predict(x []float64) bool { return m.Score(x) > 0 }
