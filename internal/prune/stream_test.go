package prune

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// muster returns an unwrapper for a streaming scheme's (pairs, error)
// return; the background context never cancels, so an error is a test
// bug.
func muster(t *testing.T) func([]model.IDPair, error) []model.IDPair {
	return func(pairs []model.IDPair, err error) []model.IDPair {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected stream error: %v", err)
		}
		return pairs
	}
}

// weightedPair builds both graph representations of a collection with
// the same scheme applied.
func weightedPairReps(c *blocking.Collection, s weights.Scheme) (*edgelist.Graph, *graph.CSR) {
	g := edgelist.Build(c)
	applyRef(s, g)
	csr := graph.BuildCSR(c)
	s.ApplyCSR(csr)
	return g, csr
}

// The edge-list reference imports nothing of this package, so the tests
// hand it what it cannot look up: the production per-edge formula, the
// defaulted CEP/CNP budgets, the resolution mode and the row width of
// WEP's summation order.

func applyRef(s weights.Scheme, g *edgelist.Graph) {
	g.Weigh(s.Weigher(g.NumEdges(), g.TotalBlocks).Weight)
}

func refWEP(g *edgelist.Graph) []int { return edgelist.WEP(g, ChunkNodes) }

func refCEP(g *edgelist.Graph, k int) []int {
	if k <= 0 {
		k = CEPBudget(g.BlockCounts)
	}
	return edgelist.CEP(g, k)
}

func refWNP(g *edgelist.Graph, mode Mode) []int { return edgelist.WNP(g, mode == Reciprocal) }

func refCNP(g *edgelist.Graph, k int, mode Mode) []int {
	if k <= 0 {
		k = CNPBudget(g.BlockCounts)
	}
	return edgelist.CNP(g, k, mode == Reciprocal)
}

func comparePairs(t *testing.T, label string, want, got []model.IDPair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestStreamMatchesEdgeListOnRandomCollections drives every streaming
// scheme against its edge-list counterpart on random collections.
func TestStreamMatchesEdgeListOnRandomCollections(t *testing.T) {
	ctx := context.Background()
	must := muster(t)
	for seed := uint64(1); seed <= 9; seed++ {
		rng := stats.NewRNG(seed)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			nodes, blocks := 40+rng.Intn(50), 30+rng.Intn(30)
			if seed == 9 {
				// Several node chunks: WEP's mean is a chunked sum whose
				// order of additions the reference reproduces.
				nodes, blocks = 3*ChunkNodes-100, 6000
			}
			c := blocking.RandomCollection(rng, kind, nodes, blocks)
			for _, s := range []weights.Scheme{
				{Kind: weights.CBS},
				{Kind: weights.EJS},
				{Kind: weights.ChiSquared, Entropy: true},
			} {
				g, csr := weightedPairReps(c, s)
				label := fmt.Sprintf("seed=%d kind=%v %v", seed, kind, s)
				comparePairs(t, label+" wep", g.Pairs(refWEP(g)), must(WEPStream(ctx, csr, 1)))
				comparePairs(t, label+" cep", g.Pairs(refCEP(g, 0)), must(CEPStream(ctx, csr, 0, 1)))
				comparePairs(t, label+" cep5", g.Pairs(refCEP(g, 5)), must(CEPStream(ctx, csr, 5, 1)))
				for _, mode := range []Mode{Redefined, Reciprocal} {
					comparePairs(t, label+" wnp", g.Pairs(refWNP(g, mode)), must(WNPStream(ctx, csr, mode, 1)))
					comparePairs(t, label+" cnp", g.Pairs(refCNP(g, 0, mode)), must(CNPStream(ctx, csr, 0, mode, 1)))
					comparePairs(t, label+" cnp2", g.Pairs(refCNP(g, 2, mode)), must(CNPStream(ctx, csr, 2, mode, 1)))
				}
				comparePairs(t, label+" blast", g.Pairs(edgelist.BlastWNP(g, 2, 2)), must(BlastWNPStream(ctx, csr, 2, 2, 1)))
				comparePairs(t, label+" blast41", g.Pairs(edgelist.BlastWNP(g, 4, 1)), must(BlastWNPStream(ctx, csr, 4, 1, 1)))
			}
		}
	}
}

// TestStreamFigure1: the streaming BLAST pruning reproduces the paper
// example exactly, like the edge-list one.
func TestStreamFigure1(t *testing.T) {
	must := muster(t)
	ds := datasets.PaperExample()
	c := blocking.TokenBlocking(ds)
	csr := graph.BuildCSR(c)
	weights.Blast().ApplyCSR(csr)
	pairs := must(BlastWNPStream(context.Background(), csr, 2, 2, 1))
	if len(pairs) != 2 {
		t.Fatalf("retained %d pairs, want 2", len(pairs))
	}
	for _, p := range pairs {
		if !ds.Truth.Contains(int(p.U), int(p.V)) {
			t.Errorf("retained non-match %v", p)
		}
	}
}

// TestStreamEmptyGraph: every streaming scheme must cope with an
// edgeless graph.
func TestStreamEmptyGraph(t *testing.T) {
	ctx := context.Background()
	must := muster(t)
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 3}
	csr := graph.BuildCSR(c)
	if must(WEPStream(ctx, csr, 1)) != nil || must(CEPStream(ctx, csr, 0, 1)) != nil ||
		must(WNPStream(ctx, csr, Redefined, 1)) != nil || must(CNPStream(ctx, csr, 0, Reciprocal, 1)) != nil ||
		must(BlastWNPStream(ctx, csr, 2, 2, 1)) != nil {
		t.Error("empty graph must prune to nothing")
	}
}

// TestStreamZeroWeightsNeverRetained mirrors the edge-list contract: a
// zero weight means no evidence, so nothing is emitted even though the
// thresholds degenerate to zero.
func TestStreamZeroWeightsNeverRetained(t *testing.T) {
	ctx := context.Background()
	must := muster(t)
	rng := stats.NewRNG(5)
	c := blocking.RandomCollection(rng, model.Dirty, 30, 20)
	csr := graph.BuildCSR(c) // weights left at zero
	for name, pairs := range map[string][]model.IDPair{
		"wep":   must(WEPStream(ctx, csr, 1)),
		"cep":   must(CEPStream(ctx, csr, 0, 1)),
		"wnp":   must(WNPStream(ctx, csr, Redefined, 1)),
		"cnp":   must(CNPStream(ctx, csr, 0, Redefined, 1)),
		"blast": must(BlastWNPStream(ctx, csr, 2, 2, 1)),
	} {
		if len(pairs) != 0 {
			t.Errorf("%s retained %d zero-weight pairs", name, len(pairs))
		}
	}
}
