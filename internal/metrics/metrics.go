// Package metrics implements the blocking-quality measures of the paper
// (Section 2): Pair Completeness (PC, a recall surrogate), Pair Quality
// (PQ, a precision surrogate), their F1 combination, and the ΔPC/ΔPQ
// comparative notation of the evaluation section.
package metrics

import (
	"fmt"

	"blast/internal/blocking"
	"blast/internal/model"
)

// Quality gathers the quality measures of one block collection (or pair
// list) against a ground truth.
type Quality struct {
	// PC = |D_B| / |D_E|: fraction of true matches with at least one
	// co-occurrence.
	PC float64
	// PQ = |D_B| / ||B||: fraction of comparisons that are matches.
	PQ float64
	// F1 is the harmonic mean of PC and PQ.
	F1 float64
	// Detected is |D_B|, the number of ground-truth pairs covered.
	Detected int
	// Comparisons is ||B||, the aggregate cardinality used for PQ.
	Comparisons int64
}

// String renders the quality in the paper's units (percentages for PC
// and PQ).
func (q Quality) String() string {
	return fmt.Sprintf("PC=%.2f%% PQ=%.4f%% F1=%.4f ||B||=%d", q.PC*100, q.PQ*100, q.F1, q.Comparisons)
}

// f1 returns the harmonic mean, 0 when both inputs are 0.
func f1(pc, pq float64) float64 {
	if pc+pq == 0 {
		return 0
	}
	return 2 * pc * pq / (pc + pq)
}

// EvaluateBlocks measures a block collection against the ground truth.
// |D_B| counts ground-truth pairs co-occurring in at least one block —
// a pair the collection compares (distinct profiles, cross-source for
// clean-clean ER) whose two block lists intersect, found by a sorted
// merge over the profile → blocks Inverse; ||B|| is the aggregate
// cardinality (comparisons counted per block, so redundant comparisons
// depress PQ, as in the paper).
func EvaluateBlocks(c *blocking.Collection, truth *model.GroundTruth) Quality {
	detected := 0
	if truth.Size() > 0 {
		inv := blocking.NewInverse(c)
		truth.ForEach(func(p model.IDPair) bool {
			if p.V < int32(c.NumProfiles) && (c.Kind == model.Dirty || (int(p.U) < c.Split && int(p.V) >= c.Split)) &&
				intersect(inv.Of(p.U), inv.Of(p.V)) {
				detected++
			}
			return true
		})
	}
	comparisons := c.AggregateCardinality()
	q := Quality{Detected: detected, Comparisons: comparisons}
	if truth.Size() > 0 {
		q.PC = float64(detected) / float64(truth.Size())
	}
	if comparisons > 0 {
		q.PQ = float64(detected) / float64(comparisons)
	}
	q.F1 = f1(q.PC, q.PQ)
	return q
}

// intersect reports whether two ascending lists share an element.
func intersect(a, b []int32) bool {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			return true
		}
	}
	return false
}

// EvaluatePairs measures a deduplicated comparison list (e.g. the output
// of meta-blocking, where each pair is a block of two) against the truth.
func EvaluatePairs(pairs []model.IDPair, truth *model.GroundTruth) Quality {
	detected := 0
	seen := make(map[uint64]struct{}, len(pairs))
	for _, p := range pairs {
		k := p.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if truth.Contains(int(p.U), int(p.V)) {
			detected++
		}
	}
	q := Quality{Detected: detected, Comparisons: int64(len(seen))}
	if truth.Size() > 0 {
		q.PC = float64(detected) / float64(truth.Size())
	}
	if q.Comparisons > 0 {
		q.PQ = float64(detected) / float64(q.Comparisons)
	}
	q.F1 = f1(q.PC, q.PQ)
	return q
}

// DeltaPQ returns (PQ(B') - PQ(B)) / PQ(B), the relative precision change
// of B' versus baseline B (Section 4 notation). Zero baseline yields 0.
func DeltaPQ(base, other Quality) float64 {
	if base.PQ == 0 {
		return 0
	}
	return (other.PQ - base.PQ) / base.PQ
}
