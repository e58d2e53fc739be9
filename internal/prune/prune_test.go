package prune

// The pruning schemes on the paper's worked examples and as invariants
// over random graphs, run through the sort-based edge-list reference
// (internal/edgelist): these hand-computed expectations are what makes
// it an oracle, and stream_test.go, parallel_test.go, topk_test.go and
// the fuzzer hold the streaming kernels to it pair for pair.

import (
	"fmt"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// figure1Graph returns the paper's blocking graph with CBS weights
// (Figure 1c): p1p2=1, p1p3=4, p1p4=3, p2p3=4, p2p4=4, p3p4=1.
func figure1Graph() *edgelist.Graph {
	g := edgelist.Build(blocking.TokenBlocking(datasets.PaperExample()))
	applyRef(weights.Scheme{Kind: weights.CBS}, g)
	return g
}

func retainedPairs(g *edgelist.Graph, idx []int) map[model.IDPair]bool {
	out := make(map[model.IDPair]bool, len(idx))
	for _, i := range idx {
		out[g.Edges[i].Pair()] = true
	}
	return out
}

// TestWNPFigure1d: traditional WNP with local-average thresholds on the
// Figure 1c graph retains p1-p3, p2-p4 and the two "red" superfluous
// edges p1-p4, p2-p3, and prunes the weight-1 edges (dashed in Fig. 1d).
func TestWNPFigure1d(t *testing.T) {
	g := figure1Graph()
	for _, mode := range []Mode{Redefined, Reciprocal} {
		got := retainedPairs(g, refWNP(g, mode))
		want := []model.IDPair{
			model.MakePair(0, 2), model.MakePair(1, 3),
			model.MakePair(0, 3), model.MakePair(1, 2),
		}
		if len(got) != len(want) {
			t.Fatalf("%v retained %d edges, want %d: %v", mode, len(got), len(want), got)
		}
		for _, p := range want {
			if !got[p] {
				t.Errorf("%v should retain %v", mode, p)
			}
		}
		if got[model.MakePair(0, 1)] || got[model.MakePair(2, 3)] {
			t.Errorf("%v should prune the weight-1 edges", mode)
		}
	}
}

func TestWEPGlobalAverage(t *testing.T) {
	g := figure1Graph()
	// Mean weight = 17/6 = 2.83: keeps the 3s and 4s.
	got := retainedPairs(g, refWEP(g))
	if len(got) != 4 {
		t.Fatalf("WEP retained %d, want 4", len(got))
	}
	if got[model.MakePair(0, 1)] || got[model.MakePair(2, 3)] {
		t.Error("WEP kept a below-average edge")
	}
}

func TestCEPTopK(t *testing.T) {
	g := figure1Graph()
	got := refCEP(g, 3)
	if len(got) != 3 {
		t.Fatalf("CEP(3) retained %d", len(got))
	}
	for _, i := range got {
		if g.Edges[i].Weight < 3 {
			t.Errorf("CEP kept weight %v while heavier edges exist", g.Edges[i].Weight)
		}
	}
	// k larger than edges: everything with positive weight.
	if got := refCEP(g, 100); len(got) != 6 {
		t.Errorf("CEP(100) = %d, want all 6", len(got))
	}
	// Default k = sum|B_i|/2 = 26/2 = 13 > 6: all edges.
	if got := refCEP(g, 0); len(got) != 6 {
		t.Errorf("CEP(default) = %d, want 6", len(got))
	}
}

func TestCNPModes(t *testing.T) {
	g := figure1Graph()
	// k=1: each node marks its single best edge (stable order for ties).
	red := retainedPairs(g, refCNP(g, 1, Redefined))
	rec := retainedPairs(g, refCNP(g, 1, Reciprocal))
	// Reciprocal must be a subset of redefined.
	for p := range rec {
		if !red[p] {
			t.Errorf("reciprocal edge %v missing from redefined", p)
		}
	}
	// p1's best is p1-p3 (4) and p3's best (stable) is p1-p3 too: it is
	// mutual and must survive reciprocal pruning.
	if !rec[model.MakePair(0, 2)] {
		t.Error("mutual best edge p1-p3 should survive reciprocal CNP")
	}
	// The weight-1 edges are nobody's top-1.
	if red[model.MakePair(0, 1)] || red[model.MakePair(2, 3)] {
		t.Error("weight-1 edge in a top-1 list")
	}
}

func TestCNPDefaultK(t *testing.T) {
	g := figure1Graph()
	// Default k = round(26/4) = 7 >= degree: keeps all positive edges.
	if got := refCNP(g, 0, Redefined); len(got) != 6 {
		t.Errorf("CNP(default) = %d, want 6", len(got))
	}
}

// TestBlastWNPFigure1: theta_i = M_i/2 = 2 for every node; the unique
// edge threshold is 2, retaining the four heavy edges.
func TestBlastWNPFigure1(t *testing.T) {
	g := figure1Graph()
	got := retainedPairs(g, edgelist.BlastWNP(g, 2, 2))
	if len(got) != 4 {
		t.Fatalf("BlastWNP retained %d, want 4", len(got))
	}
	if got[model.MakePair(0, 1)] || got[model.MakePair(2, 3)] {
		t.Error("BlastWNP kept a weight-1 edge")
	}
}

// TestBlastWNPWithBlastWeighting: with chi2*h weights the Figure 1
// example leaves only the true matches with positive weight; pruning
// yields exactly PC=1, PQ=1.
func TestBlastWNPWithBlastWeighting(t *testing.T) {
	g := edgelist.Build(blocking.TokenBlocking(datasets.PaperExample()))
	applyRef(weights.Blast(), g)
	got := retainedPairs(g, edgelist.BlastWNP(g, 2, 2))
	if len(got) != 2 {
		t.Fatalf("retained %d, want exactly the 2 matches: %v", len(got), got)
	}
	if !got[model.MakePair(0, 2)] || !got[model.MakePair(1, 3)] {
		t.Errorf("retained = %v, want p1-p3 and p2-p4", got)
	}
}

// TestBlastWNPThresholdIndependence reproduces the Figure 6 argument: the
// local-average threshold changes when low-weight neighbors are added,
// while BLAST's max-based threshold does not.
func TestBlastWNPThresholdIndependence(t *testing.T) {
	// Node 0 with edges of weight 4 (to 1), 2 (to 2), 1 (to 3).
	var baseBlocks []blocking.Block
	addPairBlocks := func(blocks []blocking.Block, u, v int32, n int, key string) []blocking.Block {
		for i := 0; i < n; i++ {
			blocks = append(blocks, blocking.Block{
				Key: key + string(rune('a'+i)), P1: []int32{u, v}, Entropy: 1,
			})
		}
		return blocks
	}
	baseBlocks = addPairBlocks(baseBlocks, 0, 1, 4, "x")
	baseBlocks = addPairBlocks(baseBlocks, 0, 2, 2, "y")
	baseBlocks = addPairBlocks(baseBlocks, 0, 3, 1, "z")
	base := blocking.FromBlocks(model.Dirty, 8, 0, baseBlocks)

	decide := func(c *blocking.Collection, prune func(*edgelist.Graph) []int) map[model.IDPair]bool {
		g := edgelist.Build(c)
		applyRef(weights.Scheme{Kind: weights.CBS}, g)
		return retainedPairs(g, prune(g))
	}

	// Reciprocal mode isolates node 0's threshold: the other endpoints are
	// leaves whose only edge always passes their own threshold.
	blastBefore := decide(base, func(g *edgelist.Graph) []int { return edgelist.BlastWNP(g, 2, 2) })
	wnpBefore := decide(base, func(g *edgelist.Graph) []int { return refWNP(g, Reciprocal) })

	// Add two more weight-1 neighbors (the p5, p6 of Figure 6a).
	extendedBlocks := addPairBlocks(append([]blocking.Block(nil), baseBlocks...), 0, 4, 1, "w")
	extendedBlocks = addPairBlocks(extendedBlocks, 0, 5, 1, "v")
	extended := blocking.FromBlocks(model.Dirty, 8, 0, extendedBlocks)

	blastAfter := decide(extended, func(g *edgelist.Graph) []int { return edgelist.BlastWNP(g, 2, 2) })
	wnpAfter := decide(extended, func(g *edgelist.Graph) []int { return refWNP(g, Reciprocal) })

	target := model.MakePair(0, 2) // the weight-2 edge
	if blastBefore[target] != blastAfter[target] {
		t.Errorf("BLAST decision on (0,2) changed with unrelated neighbors: %v -> %v",
			blastBefore[target], blastAfter[target])
	}
	// The traditional average threshold is sensitive: before avg=7/3=2.33
	// (edge dropped), after avg=9/5=1.8 (edge kept).
	if wnpBefore[target] == wnpAfter[target] {
		t.Errorf("expected traditional WNP to flip on (0,2); before=%v after=%v",
			wnpBefore[target], wnpAfter[target])
	}
}

func TestBlastWNPDefaults(t *testing.T) {
	g := figure1Graph()
	a := edgelist.BlastWNP(g, 0, 0) // defaults c=2, d=2
	b := edgelist.BlastWNP(g, 2, 2)
	if len(a) != len(b) {
		t.Errorf("default params differ: %d vs %d", len(a), len(b))
	}
}

func TestBlastWNPHigherCRetainsMore(t *testing.T) {
	g := figure1Graph()
	strict := edgelist.BlastWNP(g, 1, 2)  // theta_i = M_i
	def := edgelist.BlastWNP(g, 2, 2)     // theta_i = M_i/2
	loose := edgelist.BlastWNP(g, 100, 2) // theta_i ~ 0
	if !(len(strict) <= len(def) && len(def) <= len(loose)) {
		t.Errorf("retention not monotone in c: %d, %d, %d", len(strict), len(def), len(loose))
	}
	if len(loose) != 6 {
		t.Errorf("c=100 should keep all positive edges, got %d", len(loose))
	}
}

func TestZeroWeightEdgesNeverRetained(t *testing.T) {
	g := figure1Graph()
	// Zero out two edges.
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Pair() == model.MakePair(0, 1) || e.Pair() == model.MakePair(2, 3) {
			e.Weight = 0
		}
	}
	checks := map[string][]int{
		"WEP":      refWEP(g),
		"CEP":      refCEP(g, 100),
		"WNP1":     refWNP(g, Redefined),
		"WNP2":     refWNP(g, Reciprocal),
		"CNP1":     refCNP(g, 10, Redefined),
		"CNP2":     refCNP(g, 10, Reciprocal),
		"BlastWNP": edgelist.BlastWNP(g, 2, 2),
	}
	for name, idx := range checks {
		for _, i := range idx {
			if g.Edges[i].Weight <= 0 {
				t.Errorf("%s retained zero-weight edge %v", name, g.Edges[i].Pair())
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := &edgelist.Graph{NumProfiles: 3, Degrees: make([]int32, 3), BlockCounts: make([]int32, 3)}
	if refWEP(g) != nil || refCEP(g, 5) != nil || refWNP(g, Redefined) != nil ||
		refCNP(g, 2, Reciprocal) != nil || edgelist.BlastWNP(g, 2, 2) != nil {
		t.Error("empty graph should prune to nothing")
	}
}

func TestReciprocalSubsetOfRedefined(t *testing.T) {
	g := figure1Graph()
	redW := retainedPairs(g, refWNP(g, Redefined))
	recW := retainedPairs(g, refWNP(g, Reciprocal))
	for p := range recW {
		if !redW[p] {
			t.Errorf("WNP reciprocal edge %v not in redefined set", p)
		}
	}
}

// TestWNPRetainsLocalMaximum: in redefined WNP every node with edges
// keeps at least its maximum-weight edge (it is >= the node average).
func TestWNPRetainsLocalMaximum(t *testing.T) {
	g := figure1Graph()
	kept := retainedPairs(g, refWNP(g, Redefined))
	adj := g.Adjacency()
	for node, edges := range adj {
		if len(edges) == 0 {
			continue
		}
		best := edges[0]
		for _, ei := range edges[1:] {
			if g.Edges[ei].Weight > g.Edges[best].Weight {
				best = ei
			}
		}
		if !kept[g.Edges[best].Pair()] {
			t.Errorf("node %d max edge %v pruned by redefined WNP", node, g.Edges[best].Pair())
		}
	}
}

func TestGlobalMaximumSurvivesBlastWNP(t *testing.T) {
	g := figure1Graph()
	kept := retainedPairs(g, edgelist.BlastWNP(g, 2, 2))
	var best *edgelist.Edge
	for i := range g.Edges {
		if best == nil || g.Edges[i].Weight > best.Weight {
			best = &g.Edges[i]
		}
	}
	if !kept[best.Pair()] {
		t.Error("global maximum edge pruned")
	}
}

func TestModeString(t *testing.T) {
	if Redefined.String() != "redefined" || Reciprocal.String() != "reciprocal" {
		t.Error("Mode.String mismatch")
	}
}

// randomGraph builds a random weighted blocking graph for property tests.
func randomGraph(seed uint64, nodes, blocks int) *edgelist.Graph {
	rng := stats.NewRNG(seed)
	var bs []blocking.Block
	for b := 0; b < blocks; b++ {
		size := 2 + rng.Intn(4)
		seen := make(map[int32]bool)
		var members []int32
		for len(members) < size {
			id := int32(rng.Intn(nodes))
			if !seen[id] {
				seen[id] = true
				members = append(members, id)
			}
		}
		bs = append(bs, blocking.Block{
			Key: fmt.Sprintf("b%04d", b), P1: members, Entropy: 1,
		})
	}
	g := edgelist.Build(blocking.FromBlocks(model.Dirty, nodes, 0, bs))
	applyRef(weights.Scheme{Kind: weights.CBS}, g)
	return g
}

// TestPruningInvariantsRandomGraphs: on arbitrary graphs, (1) reciprocal
// node-centric results are subsets of redefined ones, (2) retained
// indexes are sorted and valid, (3) CEP(k) retains at most k edges,
// (4) WNP redefined keeps every node's maximum edge.
func TestPruningInvariantsRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g := randomGraph(seed, 12+int(seed)%20, 30+int(seed*3)%40)
		if g.NumEdges() == 0 {
			continue
		}
		checkSorted := func(name string, idx []int) {
			for i := range idx {
				if idx[i] < 0 || idx[i] >= g.NumEdges() {
					t.Fatalf("seed %d %s: index %d out of range", seed, name, idx[i])
				}
				if i > 0 && idx[i] <= idx[i-1] {
					t.Fatalf("seed %d %s: indexes not strictly sorted", seed, name)
				}
			}
		}
		wnpR := refWNP(g, Redefined)
		wnpC := refWNP(g, Reciprocal)
		cnpR := refCNP(g, 3, Redefined)
		cnpC := refCNP(g, 3, Reciprocal)
		wep := refWEP(g)
		cep := refCEP(g, 5)
		bl := edgelist.BlastWNP(g, 2, 2)
		for name, idx := range map[string][]int{
			"wnp1": wnpR, "wnp2": wnpC, "cnp1": cnpR, "cnp2": cnpC,
			"wep": wep, "cep": cep, "blast": bl,
		} {
			checkSorted(name, idx)
		}
		inSet := func(idx []int) map[int]bool {
			m := make(map[int]bool, len(idx))
			for _, i := range idx {
				m[i] = true
			}
			return m
		}
		redW := inSet(wnpR)
		for _, i := range wnpC {
			if !redW[i] {
				t.Fatalf("seed %d: wnp2 edge %d not in wnp1", seed, i)
			}
		}
		redC := inSet(cnpR)
		for _, i := range cnpC {
			if !redC[i] {
				t.Fatalf("seed %d: cnp2 edge %d not in cnp1", seed, i)
			}
		}
		if len(cep) > 5 {
			t.Fatalf("seed %d: CEP(5) kept %d", seed, len(cep))
		}
		// Redefined WNP keeps every node's max-weight edge.
		kept := inSet(wnpR)
		adj := g.Adjacency()
		for node, edges := range adj {
			if len(edges) == 0 {
				continue
			}
			best := int(edges[0])
			for _, ei := range edges[1:] {
				if g.Edges[ei].Weight > g.Edges[best].Weight {
					best = int(ei)
				}
			}
			if g.Edges[best].Weight > 0 && !kept[best] {
				t.Fatalf("seed %d: node %d max edge pruned by wnp1", seed, node)
			}
		}
	}
}

// TestBlastWNPSubsetOfLooserD: for fixed c, growing d loosens the
// combined threshold, so retained sets grow monotonically.
func TestBlastWNPSubsetOfLooserD(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := randomGraph(seed, 15, 40)
		tight := edgelist.BlastWNP(g, 2, 1)
		def := edgelist.BlastWNP(g, 2, 2)
		loose := edgelist.BlastWNP(g, 2, 4)
		in := func(idx []int) map[int]bool {
			m := make(map[int]bool)
			for _, i := range idx {
				m[i] = true
			}
			return m
		}
		defSet, looseSet := in(def), in(loose)
		for _, i := range tight {
			if !defSet[i] {
				t.Fatalf("seed %d: d=1 edge missing at d=2", seed)
			}
		}
		for _, i := range def {
			if !looseSet[i] {
				t.Fatalf("seed %d: d=2 edge missing at d=4", seed)
			}
		}
	}
}
