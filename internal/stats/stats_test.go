package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEntropyUniform(t *testing.T) {
	// Uniform over 4 outcomes: H = log2(4) = 2 bits.
	if got := Entropy([]int{5, 5, 5, 5}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Entropy(uniform4) = %v, want 2", got)
	}
}

func TestEntropyDegenerate(t *testing.T) {
	if got := Entropy([]int{10}); got != 0 {
		t.Errorf("Entropy(single) = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("Entropy(nil) = %v, want 0", got)
	}
	if got := Entropy([]int{0, 0, -3}); got != 0 {
		t.Errorf("Entropy(non-positive) = %v, want 0", got)
	}
}

func TestEntropyKnownValue(t *testing.T) {
	// p = (0.25, 0.75): H = 0.811278...
	got := Entropy([]int{1, 3})
	want := -(0.25*math.Log2(0.25) + 0.75*math.Log2(0.75))
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("Entropy = %v, want %v", got, want)
	}
}

func TestEntropyBounds(t *testing.T) {
	// Property: 0 <= H <= log2(#positive outcomes).
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		positive := 0
		for i, v := range raw {
			counts[i] = int(v)
			if v > 0 {
				positive++
			}
		}
		h := Entropy(counts)
		return h >= 0 && h <= math.Log2(math.Max(1, float64(positive)))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntropyUniformIsMax(t *testing.T) {
	// Among distributions over n outcomes the uniform one maximizes H.
	for n := 2; n <= 16; n *= 2 {
		uniform := make([]int, n)
		for i := range uniform {
			uniform[i] = 7
		}
		hu := Entropy(uniform)
		if !almostEqual(hu, math.Log2(float64(n)), 1e-12) {
			t.Errorf("uniform entropy over %d = %v, want %v", n, hu, math.Log2(float64(n)))
		}
		skewed := make([]int, n)
		for i := range skewed {
			skewed[i] = 1
		}
		skewed[0] = 100
		if hs := Entropy(skewed); hs >= hu {
			t.Errorf("skewed entropy %v >= uniform %v", hs, hu)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestContingencyCellsPaperExample(t *testing.T) {
	// Table 1 of the paper, values in parentheses for p1, p3 of Figure 1b:
	// n11=4 n12=2 n21=3 n22=3, marginals 6/6 and 7/5, n=12.
	c := NewContingency(4, 6, 7, 12)
	n11, n12, n21, n22 := c.Cells()
	if n11 != 4 || n12 != 2 || n21 != 3 || n22 != 3 {
		t.Fatalf("Cells = %v %v %v %v, want 4 2 3 3", n11, n12, n21, n22)
	}
}

func TestContingencyMarginals(t *testing.T) {
	// Property: cells always sum to N and are consistent with marginals.
	f := func(a, b, c, n uint8) bool {
		total := int(n) + 1
		common := int(a) % (total + 1)
		bu := common + int(b)%(total-common+1)
		bv := common + int(c)%(total-common+1)
		if bu > total || bv > total {
			return true // skip impossible configurations
		}
		tab := NewContingency(common, bu, bv, total)
		n11, n12, n21, n22 := tab.Cells()
		if !almostEqual(n11+n12+n21+n22, tab.N, 1e-9) {
			return false
		}
		return almostEqual(n11+n12, tab.N1x, 1e-9) && almostEqual(n11+n21, tab.Nx1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredIndependence(t *testing.T) {
	// Perfectly independent table: observed == expected, chi2 = 0.
	// n11=1, n1x=2, nx1=2, n=4 -> mu11 = 2*2/4 = 1 = n11, etc.
	c := NewContingency(1, 2, 2, 4)
	if got := c.ChiSquared(); !almostEqual(got, 0, 1e-12) {
		t.Errorf("ChiSquared(independent) = %v, want 0", got)
	}
}

func TestChiSquaredKnownValue(t *testing.T) {
	// Paper example table (p1,p3): n11=4 n12=2 n21=3 n22=3.
	// Expected: mu11=6*7/12=3.5, mu12=6*5/12=2.5, mu21=6*7/12=3.5, mu22=2.5.
	// chi2 = .25/3.5 + .25/2.5 + .25/3.5 + .25/2.5 = 2*(0.0714285..+0.1) = 0.342857...
	c := NewContingency(4, 6, 7, 12)
	want := 0.25/3.5 + 0.25/2.5 + 0.25/3.5 + 0.25/2.5
	if got := c.ChiSquared(); !almostEqual(got, want, 1e-12) {
		t.Errorf("ChiSquared = %v, want %v", got, want)
	}
}

func TestChiSquaredDegenerate(t *testing.T) {
	if got := NewContingency(0, 0, 0, 10).ChiSquared(); got != 0 {
		t.Errorf("zero marginals should give 0, got %v", got)
	}
	if got := NewContingency(5, 5, 5, 5).ChiSquared(); got != 0 {
		// All blocks contain both profiles: one zero marginal row/col.
		t.Errorf("saturated table should give 0, got %v", got)
	}
	if got := NewContingency(0, 0, 0, 0).ChiSquared(); got != 0 {
		t.Errorf("empty table should give 0, got %v", got)
	}
}

func TestChiSquaredNonNegativeProperty(t *testing.T) {
	f := func(a, b, c, n uint8) bool {
		total := int(n)%64 + 2
		common := int(a) % (total + 1)
		bu := common + int(b)%(total-common+1)
		bv := common + int(c)%(total-common+1)
		tab := NewContingency(common, bu, bv, total)
		if n11, n12, n21, n22 := tab.Cells(); n11 < 0 || n12 < 0 || n21 < 0 || n22 < 0 {
			return true
		}
		return tab.ChiSquared() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredMonotoneInAssociation(t *testing.T) {
	// With fixed marginals, moving observed co-occurrence away from the
	// independence expectation increases chi2.
	base := NewContingency(5, 10, 10, 20) // mu11 = 5 -> chi2 = 0
	stronger := NewContingency(8, 10, 10, 20)
	strongest := NewContingency(10, 10, 10, 20)
	c0, c1, c2 := base.ChiSquared(), stronger.ChiSquared(), strongest.ChiSquared()
	if !(c0 < c1 && c1 < c2) {
		t.Errorf("chi2 not monotone: %v %v %v", c0, c1, c2)
	}
}

func TestContingencyString(t *testing.T) {
	if s := NewContingency(1, 2, 3, 10).String(); s == "" {
		t.Error("String should render")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical streams")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for n := 1; n < 40; n++ {
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		// Expect draws/n = 10000 each; allow 10% slack.
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d deviates from uniform", i, c)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGShuffle(t *testing.T) {
	r := NewRNG(5)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Errorf("Shuffle lost elements: %v (orig %v)", xs, orig)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(11)
	z := NewZipf(r, 1.0, 100)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Draw()]++
	}
	// Rank 0 must dominate rank 50 heavily under s=1.
	if counts[0] < counts[50]*5 {
		t.Errorf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// All draws in range (implicitly checked by indexing) and rank 0 nonzero.
	if counts[0] == 0 {
		t.Error("rank 0 never drawn")
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(1)
	for _, bad := range []struct {
		s float64
		n int
	}{{0, 10}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%v,%v) should panic", bad.s, bad.n)
				}
			}()
			NewZipf(r, bad.s, bad.n)
		}()
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, 2)
	if hi != 1 || lo != math.MaxUint64-1 {
		t.Errorf("mul64 overflow wrong: hi=%d lo=%d", hi, lo)
	}
	hi, lo = mul64(3, 4)
	if hi != 0 || lo != 12 {
		t.Errorf("mul64(3,4) = %d,%d", hi, lo)
	}
}

func TestPositiveAssociation(t *testing.T) {
	// Positively associated: observed 4 > expected 3.5.
	pos := NewContingency(4, 6, 7, 12)
	if got := pos.PositiveAssociation(); !almostEqual(got, pos.ChiSquared(), 1e-12) || got <= 0 {
		t.Errorf("PositiveAssociation = %v, want ChiSquared %v", got, pos.ChiSquared())
	}
	// Anti-associated: observed 1 < expected 3.5 -> 0 despite high chi2.
	neg := NewContingency(1, 6, 7, 12)
	if neg.ChiSquared() <= 0 {
		t.Fatal("sanity: anti-associated table has positive chi2")
	}
	if got := neg.PositiveAssociation(); got != 0 {
		t.Errorf("PositiveAssociation(anti) = %v, want 0", got)
	}
	// Exactly independent -> 0.
	if got := NewContingency(1, 2, 2, 4).PositiveAssociation(); got != 0 {
		t.Errorf("PositiveAssociation(independent) = %v, want 0", got)
	}
	// Degenerate -> 0.
	if got := NewContingency(0, 0, 0, 0).PositiveAssociation(); got != 0 {
		t.Errorf("PositiveAssociation(empty) = %v, want 0", got)
	}
}

func TestPositiveAssociationSaturated(t *testing.T) {
	// Every block contains both profiles: maximal association, scored N.
	sat := NewContingency(4, 4, 4, 4)
	if got := sat.PositiveAssociation(); got != 4 {
		t.Errorf("saturated PositiveAssociation = %v, want 4 (=N)", got)
	}
	// Perfect association below saturation attains exactly N via the
	// regular chi2 formula — the continuity the special case extends.
	perf := NewContingency(4, 4, 4, 5)
	if got := perf.PositiveAssociation(); !almostEqual(got, 5, 1e-9) {
		t.Errorf("perfect association = %v, want 5 (=N)", got)
	}
}
