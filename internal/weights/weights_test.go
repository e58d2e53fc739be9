package weights

import (
	"math"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/model"
	"blast/internal/stats"
)

// The hand-computed weights below go through the edge-list reference:
// its Weigh loop feeds every edge's statistics to the production
// per-edge formula (Weigher.Weight), which is what these tests pin.
// csr_test.go holds the CSR kernel to the same reference.

func paperGraph() *edgelist.Graph {
	return edgelist.Build(blocking.TokenBlocking(datasets.PaperExample()))
}

// apply weighs the reference graph under the scheme.
func apply(s Scheme, g *edgelist.Graph) {
	g.Weigh(s.Weigher(g.NumEdges(), g.TotalBlocks).Weight)
}

func edge(t *testing.T, g *edgelist.Graph, u, v int) *edgelist.Edge {
	t.Helper()
	e := g.EdgeBetween(u, v)
	if e == nil {
		t.Fatalf("edge (%d,%d) missing", u, v)
	}
	return e
}

func TestCBSMatchesFigure1c(t *testing.T) {
	g := paperGraph()
	apply(Scheme{Kind: CBS}, g)
	want := map[[2]int]float64{
		{0, 2}: 4, {1, 3}: 4, {0, 3}: 3, {1, 2}: 4, {0, 1}: 1, {2, 3}: 1,
	}
	for pair, w := range want {
		if got := edge(t, g, pair[0], pair[1]).Weight; got != w {
			t.Errorf("CBS(%v) = %v, want %v", pair, got, w)
		}
	}
}

func TestJSKnownValue(t *testing.T) {
	g := paperGraph()
	apply(Scheme{Kind: JS}, g)
	// p1-p3: |B_uv|=4, |B_u|=6, |B_v|=7 -> 4/(6+7-4) = 4/9.
	if got := edge(t, g, 0, 2).Weight; math.Abs(got-4.0/9) > 1e-12 {
		t.Errorf("JS(p1,p3) = %v, want 4/9", got)
	}
}

func TestECBSKnownValue(t *testing.T) {
	g := paperGraph()
	apply(Scheme{Kind: ECBS}, g)
	want := 4 * math.Log(12.0/6) * math.Log(12.0/7)
	if got := edge(t, g, 0, 2).Weight; math.Abs(got-want) > 1e-12 {
		t.Errorf("ECBS(p1,p3) = %v, want %v", got, want)
	}
}

func TestARCSUsesAccumulatedMass(t *testing.T) {
	g := paperGraph()
	apply(Scheme{Kind: ARCS}, g)
	want := 3 + 1.0/6 // car, main, jr (1 comparison each) + abram (6)
	if got := edge(t, g, 0, 2).Weight; math.Abs(got-want) > 1e-12 {
		t.Errorf("ARCS(p1,p3) = %v, want %v", got, want)
	}
}

func TestEJSDiscountsHighDegree(t *testing.T) {
	g := paperGraph()
	apply(Scheme{Kind: EJS}, g)
	// All nodes have degree 3 and |E|=6: factor log(2)^2 on each JS.
	jsG := paperGraph()
	apply(Scheme{Kind: JS}, jsG)
	f := math.Log(2) * math.Log(2)
	for i := range g.Edges {
		want := jsG.Edges[i].Weight * f
		if math.Abs(g.Edges[i].Weight-want) > 1e-12 {
			t.Errorf("EJS edge %d = %v, want %v", i, g.Edges[i].Weight, want)
		}
	}
}

func TestChiSquaredMatchesContingency(t *testing.T) {
	g := paperGraph()
	apply(Scheme{Kind: ChiSquared}, g)
	// p1-p3 contingency (Table 1): common=4, |B_u|=6, |B_v|=7, n=12.
	want := stats.NewContingency(4, 6, 7, 12).PositiveAssociation()
	if got := edge(t, g, 0, 2).Weight; math.Abs(got-want) > 1e-12 {
		t.Errorf("chi2(p1,p3) = %v, want %v", got, want)
	}
	if want <= 0 {
		t.Fatal("sanity: chi2 of associated pair should be positive")
	}
}

func TestChiSquaredRanksMatchesAboveNonMatches(t *testing.T) {
	g := paperGraph()
	apply(Scheme{Kind: ChiSquared}, g)
	match1 := edge(t, g, 0, 2).Weight // p1-p3 (true match)
	match2 := edge(t, g, 1, 3).Weight // p2-p4 (true match)
	super1 := edge(t, g, 0, 1).Weight // p1-p2
	super2 := edge(t, g, 2, 3).Weight // p3-p4
	if match1 <= super1 || match2 <= super2 {
		t.Errorf("chi2 should rank matches above superfluous pairs: %v,%v vs %v,%v",
			match1, match2, super1, super2)
	}
	// On the Figure 1 example the one-sided statistic zeroes every
	// superfluous edge: the only positively associated pairs are the
	// true matches.
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {0, 3}, {1, 2}} {
		if w := edge(t, g, pair[0], pair[1]).Weight; w != 0 {
			t.Errorf("superfluous edge %v has weight %v, want 0", pair, w)
		}
	}
}

func TestEntropyScaling(t *testing.T) {
	// Hand-built two-block collection with distinct entropies.
	c := blocking.FromBlocks(model.Dirty, 4, 0, []blocking.Block{
		{Key: "a", P1: []int32{0, 1}, Entropy: 3.0},
		{Key: "b", P1: []int32{2, 3}, Entropy: 0.5},
		{Key: "c", P1: []int32{0, 1, 2}, Entropy: 1.0},
	})
	g := edgelist.Build(c)
	apply(Scheme{Kind: CBS}, g)
	base01 := g.EdgeBetween(0, 1).Weight
	base23 := g.EdgeBetween(2, 3).Weight

	apply(Scheme{Kind: CBS, Entropy: true}, g)
	h01 := g.EdgeBetween(0, 1).Weight
	h23 := g.EdgeBetween(2, 3).Weight

	// Edge (0,1): blocks a and c -> mean entropy 2.0; (2,3): block b -> 0.5.
	if math.Abs(h01-base01*2.0) > 1e-12 {
		t.Errorf("entropy-scaled (0,1) = %v, want %v", h01, base01*2.0)
	}
	if math.Abs(h23-base23*0.5) > 1e-12 {
		t.Errorf("entropy-scaled (2,3) = %v, want %v", h23, base23*0.5)
	}
}

func TestBlastSchemeIsChiSquaredTimesEntropy(t *testing.T) {
	s := Blast()
	if s.Kind != ChiSquared || !s.Entropy {
		t.Errorf("Blast() = %+v", s)
	}
}

func TestAllSchemesNonNegativeAndFinite(t *testing.T) {
	g := paperGraph()
	kinds := append(Classic(), ChiSquared)
	for _, k := range kinds {
		for _, entropy := range []bool{false, true} {
			apply(Scheme{Kind: k, Entropy: entropy}, g)
			for i := range g.Edges {
				w := g.Edges[i].Weight
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					t.Errorf("%v entropy=%v edge %d weight %v", k, entropy, i, w)
				}
			}
		}
	}
}

func TestSchemeNames(t *testing.T) {
	names := map[Kind]string{CBS: "CBS", ECBS: "ECBS", ARCS: "ARCS", JS: "JS", EJS: "EJS", ChiSquared: "chi2"}
	for k, n := range names {
		if k.String() != n {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), n)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestApplyPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind should panic")
		}
	}()
	g := paperGraph()
	apply(Scheme{Kind: Kind(99)}, g)
}

func TestSafeLog(t *testing.T) {
	if safeLog(0.5) != 0 || safeLog(1) != 0 {
		t.Error("safeLog should clamp x <= 1 to 0")
	}
	if math.Abs(safeLog(math.E)-1) > 1e-12 {
		t.Error("safeLog(e) != 1")
	}
}

func TestClassicList(t *testing.T) {
	if len(Classic()) != 5 {
		t.Errorf("Classic() has %d schemes, want 5", len(Classic()))
	}
}
