package lsh

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"blast/internal/stats"
)

func TestTokenHashDeterministic(t *testing.T) {
	if TokenHash("abram") != TokenHash("abram") {
		t.Error("TokenHash not deterministic")
	}
	if TokenHash("abram") == TokenHash("ellen") {
		t.Error("distinct tokens should hash differently (with overwhelming probability)")
	}
}

func TestSignerDeterministic(t *testing.T) {
	s1 := NewSigner(16, 42)
	s2 := NewSigner(16, 42)
	a := sign(s1, []string{"a", "b", "c"})
	b := sign(s2, []string{"a", "b", "c"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed signers differ")
		}
	}
	s3 := NewSigner(16, 43)
	c := sign(s3, []string{"a", "b", "c"})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical signatures")
	}
}

func TestSignerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSigner(0) should panic")
		}
	}()
	NewSigner(0, 1)
}

func TestSignatureOrderInvariance(t *testing.T) {
	s := NewSigner(32, 7)
	a := sign(s, []string{"x", "y", "z", "w"})
	b := sign(s, []string{"w", "z", "y", "x"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signature depends on token order; it must not")
		}
	}
}

func TestEmptySetSignature(t *testing.T) {
	s := NewSigner(8, 7)
	sig := sign(s, nil)
	for _, v := range sig {
		if v != math.MaxUint64 {
			t.Fatal("empty set signature must be all MaxUint64")
		}
	}
}

func TestIdenticalSetsEstimateOne(t *testing.T) {
	s := NewSigner(64, 3)
	a := sign(s, []string{"p", "q", "r"})
	b := sign(s, []string{"p", "q", "r"})
	if got := agreement(a, b); got != 1 {
		t.Errorf("identical sets estimate = %v, want 1", got)
	}
}

func TestDisjointSetsEstimateNearZero(t *testing.T) {
	s := NewSigner(128, 3)
	a := sign(s, []string{"aa", "bb", "cc", "dd"})
	b := sign(s, []string{"ee", "ff", "gg", "hh"})
	if got := agreement(a, b); got > 0.05 {
		t.Errorf("disjoint sets estimate = %v, want ~0", got)
	}
}

// trueJaccard computes exact Jaccard of two string sets.
func trueJaccard(a, b []string) float64 {
	sa := make(map[string]bool)
	for _, x := range a {
		sa[x] = true
	}
	inter := 0
	sb := make(map[string]bool)
	for _, x := range b {
		if sb[x] {
			continue
		}
		sb[x] = true
		if sa[x] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func TestMinHashEstimatesJaccard(t *testing.T) {
	// Statistical test: with 512 hashes the estimator's standard error is
	// sqrt(J(1-J)/512) <= 0.0221; tolerate 5 sigma.
	s := NewSigner(512, 99)
	mk := func(from, to int) []string {
		var xs []string
		for i := from; i < to; i++ {
			xs = append(xs, fmt.Sprintf("tok%04d", i))
		}
		return xs
	}
	cases := []struct{ a, b []string }{
		{mk(0, 100), mk(50, 150)},  // J = 50/150 = 1/3
		{mk(0, 100), mk(90, 190)},  // J = 10/190
		{mk(0, 40), mk(20, 60)},    // J = 20/60 = 1/3
		{mk(0, 100), mk(0, 100)},   // J = 1
		{mk(0, 100), mk(100, 200)}, // J = 0
	}
	for i, c := range cases {
		want := trueJaccard(c.a, c.b)
		got := agreement(sign(s, c.a), sign(s, c.b))
		tol := 5 * math.Sqrt(want*(1-want)/512)
		if tol < 0.02 {
			tol = 0.02
		}
		if math.Abs(got-want) > tol {
			t.Errorf("case %d: estimate %v, true %v (tol %v)", i, got, want, tol)
		}
	}
}

func TestSCurveShape(t *testing.T) {
	// Monotone increasing, 0 at 0, 1 at 1.
	if SCurve(0, 5, 30) != 0 || SCurve(1, 5, 30) != 1 {
		t.Error("S-curve endpoints wrong")
	}
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.01 {
		v := SCurve(s, 5, 30)
		if v < prev-1e-12 {
			t.Fatalf("S-curve not monotone at %v", s)
		}
		prev = v
	}
}

func TestSCurvePaperConfiguration(t *testing.T) {
	// Paper Figure 5: r=5, b=30 -> threshold ~0.5.
	th := Threshold(5, 30)
	if math.Abs(th-0.506) > 0.01 {
		t.Errorf("Threshold(5,30) = %v, want ~0.506", th)
	}
	// At the threshold the curve should be in its steep middle region.
	p := SCurve(th, 5, 30)
	if p < 0.3 || p > 0.9 {
		t.Errorf("SCurve at threshold = %v, want mid-range", p)
	}
	// Far below the threshold candidates are unlikely; far above, likely.
	if SCurve(0.2, 5, 30) > 0.05 {
		t.Errorf("SCurve(0.2) = %v, want < 0.05", SCurve(0.2, 5, 30))
	}
	if SCurve(0.8, 5, 30) < 0.99 {
		t.Errorf("SCurve(0.8) = %v, want > 0.99", SCurve(0.8, 5, 30))
	}
}

func TestThresholdProperties(t *testing.T) {
	f := func(r8, b8 uint8) bool {
		r := int(r8%10) + 1
		b := int(b8%40) + 1
		th := Threshold(r, b)
		return th > 0 && th <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Threshold(0, 10) != 1 || Threshold(10, 0) != 1 {
		t.Error("degenerate threshold should be 1")
	}
}

func TestIndexCandidatesSimilarPairs(t *testing.T) {
	// Attributes: 0 and 1 nearly identical, 2 unrelated.
	sets := [][]string{
		{"ellen", "smith", "john", "mary", "kate", "lucy", "anna", "rose"},
		{"ellen", "smith", "john", "mary", "kate", "lucy", "anna", "jane"},
		{"volt", "amp", "watt", "ohm", "tesla", "henry", "farad", "weber"},
	}
	signer := NewSigner(150, 17)
	ix := NewIndex(5, 30)
	for i, s := range sets {
		ix.Add(int32(i), sign(signer, s))
	}
	cands := ix.Candidates(nil)
	found01 := false
	for _, c := range cands {
		if c.A == 0 && c.B == 1 {
			found01 = true
		}
		if c.A == 0 && c.B == 2 || c.A == 1 && c.B == 2 {
			t.Errorf("unrelated pair (%d,%d) became candidate", c.A, c.B)
		}
	}
	if !found01 {
		t.Error("near-identical pair (0,1) not a candidate")
	}
}

func TestIndexCrossOnlyFilter(t *testing.T) {
	signer := NewSigner(150, 17)
	ix := NewIndex(5, 30)
	same := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 4; i++ {
		ix.Add(int32(i), sign(signer, same))
	}
	// Only allow pairs crossing the boundary at 2.
	cross := func(a, b int32) bool { return (a < 2) != (b < 2) }
	cands := ix.Candidates(cross)
	if len(cands) != 4 {
		t.Fatalf("cross candidates = %d, want 4 (2x2)", len(cands))
	}
	for _, c := range cands {
		if !cross(c.A, c.B) {
			t.Errorf("pair (%d,%d) violates cross filter", c.A, c.B)
		}
	}
}

func TestIndexCandidatesDeduplicated(t *testing.T) {
	signer := NewSigner(150, 17)
	ix := NewIndex(5, 30)
	same := []string{"x", "y", "z", "q", "r"}
	ix.Add(0, sign(signer, same))
	ix.Add(1, sign(signer, same))
	cands := ix.Candidates(nil)
	if len(cands) != 1 {
		t.Fatalf("identical signatures collide in every band; want 1 deduplicated pair, got %d", len(cands))
	}
	if cands[0].A != 0 || cands[0].B != 1 {
		t.Errorf("candidate = %+v, want {0 1}", cands[0])
	}
}

func TestIndexPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewIndex(0,1) should panic")
			}
		}()
		NewIndex(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short signature should panic")
			}
		}()
		ix := NewIndex(2, 2)
		ix.Add(0, []uint64{1, 2, 3})
	}()
}

func TestBandingRecallStatistical(t *testing.T) {
	// Empirical check of the S-curve: generate many pairs with controlled
	// Jaccard and verify candidate rates bracket the analytic curve.
	const rows, bands = 5, 30
	signer := NewSigner(rows*bands, 123)
	rng := stats.NewRNG(9)

	makePair := func(overlap, size int) ([]uint64, []uint64) {
		// Two sets sharing `overlap` of `size` tokens each.
		var a, b []uint64
		for i := 0; i < overlap; i++ {
			tok := rng.Uint64()
			a = append(a, tok)
			b = append(b, tok)
		}
		for i := overlap; i < size; i++ {
			a = append(a, rng.Uint64())
			b = append(b, rng.Uint64())
		}
		return a, b
	}

	run := func(overlap, size, trials int) float64 {
		hits := 0
		for i := 0; i < trials; i++ {
			sa, sb := makePair(overlap, size)
			ix := NewIndex(rows, bands)
			ix.Add(0, signer.SignHashes(sa))
			ix.Add(1, signer.SignHashes(sb))
			if len(ix.Candidates(nil)) > 0 {
				hits++
			}
		}
		return float64(hits) / float64(trials)
	}

	// J = 60/(2*100-60) = 0.428...; curve ~0.26. J=80/120=0.667; curve ~0.98.
	low := run(60, 100, 60)
	high := run(80, 100, 60)
	if low >= high {
		t.Errorf("candidate rate should increase with similarity: low=%v high=%v", low, high)
	}
	if high < 0.8 {
		t.Errorf("high-similarity candidate rate %v, want > 0.8", high)
	}
}

// sign is the MinHash signature of string tokens hashed with TokenHash.
func sign(s *Signer, tokens []string) []uint64 {
	hs := make([]uint64, len(tokens))
	for i, tok := range tokens {
		hs[i] = TokenHash(tok)
	}
	return s.SignHashes(hs)
}

// agreement is the fraction of equal positions of two signatures of one
// length: MinHash's estimate of the underlying sets' Jaccard similarity.
func agreement(a, b []uint64) float64 {
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(a))
}
