package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/model"
)

func TestEvaluateBlocksPaperExample(t *testing.T) {
	ds := datasets.PaperExample()
	c := blocking.TokenBlocking(ds)
	q := EvaluateBlocks(c, ds.Truth)
	// Both matches co-occur; ||B|| = 17.
	if q.PC != 1 {
		t.Errorf("PC = %v, want 1", q.PC)
	}
	if q.Detected != 2 || q.Comparisons != 17 {
		t.Errorf("Detected=%d Comparisons=%d, want 2/17", q.Detected, q.Comparisons)
	}
	if math.Abs(q.PQ-2.0/17) > 1e-12 {
		t.Errorf("PQ = %v, want 2/17", q.PQ)
	}
	wantF1 := 2 * 1 * (2.0 / 17) / (1 + 2.0/17)
	if math.Abs(q.F1-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", q.F1, wantF1)
	}
}

func TestEvaluateBlocksCountsDistinctMatches(t *testing.T) {
	// A match co-occurring in many blocks counts once in |D_B| but its
	// comparisons inflate ||B||.
	c := blocking.FromBlocks(model.Dirty, 2, 0, []blocking.Block{
		{Key: "a", P1: []int32{0, 1}},
		{Key: "b", P1: []int32{0, 1}},
		{Key: "c", P1: []int32{0, 1}},
	})
	truth := model.NewGroundTruth()
	truth.Add(0, 1)
	q := EvaluateBlocks(c, truth)
	if q.Detected != 1 {
		t.Errorf("Detected = %d, want 1", q.Detected)
	}
	if q.Comparisons != 3 {
		t.Errorf("Comparisons = %d, want 3 (redundancy)", q.Comparisons)
	}
	if math.Abs(q.PQ-1.0/3) > 1e-12 {
		t.Errorf("PQ = %v, want 1/3", q.PQ)
	}
}

func TestEvaluatePairs(t *testing.T) {
	truth := model.NewGroundTruth()
	truth.Add(0, 1)
	truth.Add(2, 3)
	pairs := []model.IDPair{
		model.MakePair(0, 1),
		model.MakePair(1, 2), // superfluous
		model.MakePair(0, 1), // duplicate: ignored
	}
	q := EvaluatePairs(pairs, truth)
	if q.Detected != 1 || q.Comparisons != 2 {
		t.Errorf("Detected=%d Comparisons=%d, want 1/2", q.Detected, q.Comparisons)
	}
	if q.PC != 0.5 || q.PQ != 0.5 {
		t.Errorf("PC=%v PQ=%v, want 0.5/0.5", q.PC, q.PQ)
	}
	if q.F1 != 0.5 {
		t.Errorf("F1 = %v, want 0.5", q.F1)
	}
}

func TestEvaluatePairsEmpty(t *testing.T) {
	truth := model.NewGroundTruth()
	truth.Add(0, 1)
	q := EvaluatePairs(nil, truth)
	if q.PC != 0 || q.PQ != 0 || q.F1 != 0 {
		t.Errorf("empty pairs should be all-zero, got %+v", q)
	}
}

func TestEvaluateEmptyTruth(t *testing.T) {
	truth := model.NewGroundTruth()
	q := EvaluatePairs([]model.IDPair{model.MakePair(0, 1)}, truth)
	if q.PC != 0 {
		t.Errorf("PC with empty truth = %v", q.PC)
	}
	c := blocking.FromBlocks(model.Dirty, 2, 0, []blocking.Block{
		{Key: "a", P1: []int32{0, 1}},
	})
	qb := EvaluateBlocks(c, truth)
	if qb.PC != 0 || qb.PQ != 0 {
		t.Errorf("block eval with empty truth = %+v", qb)
	}
}

func TestDeltas(t *testing.T) {
	base := Quality{PC: 0.8, PQ: 0.1}
	other := Quality{PC: 0.76, PQ: 0.3}
	if got := DeltaPQ(base, other); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("DeltaPQ = %v, want 2.0", got)
	}
	if DeltaPQ(Quality{}, other) != 0 {
		t.Error("zero baseline should give 0 delta")
	}
}

func TestQualityBoundsProperty(t *testing.T) {
	f := func(detected, truthSize, comparisons uint8) bool {
		d := int(detected % 50)
		ts := d + int(truthSize%50)
		cmp := int64(d) + int64(comparisons%50)
		if ts == 0 || cmp == 0 {
			return true
		}
		pc := float64(d) / float64(ts)
		pq := float64(d) / float64(cmp)
		f := f1(pc, pq)
		return pc >= 0 && pc <= 1 && pq >= 0 && pq <= 1 && f >= 0 && f <= 1 &&
			f <= math.Max(pc, pq)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQualityString(t *testing.T) {
	q := Quality{PC: 0.5, PQ: 0.25, F1: 0.333, Comparisons: 42}
	if q.String() == "" {
		t.Error("String should render")
	}
}
