package graph

// Hand-computed expectations on the paper's running example and a few
// hand-built collections. Each holds two builders at once: the
// edge-list reference (so the oracle of the differential tests is itself
// pinned to the paper) and the CSR builder, read back into edge-list
// form.

import (
	"math"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/model"
)

// asEdgeList reads a statistics-bearing resident CSR back into the
// reference's edge-list form, one Edge per canonical entry.
func asEdgeList(g *CSR) *edgelist.Graph {
	out := &edgelist.Graph{
		NumProfiles:      g.NumProfiles,
		BlockCounts:      g.BlockCounts,
		Degrees:          make([]int32, g.NumProfiles),
		TotalBlocks:      g.TotalBlocks,
		TotalComparisons: g.TotalComparisons,
	}
	for n := range out.Degrees {
		out.Degrees[n] = int32(g.Degree(n))
	}
	g.Canonical(func(u, v int32, p int64) {
		out.Edges = append(out.Edges, edgelist.Edge{
			U: u, V: v, Common: g.Common[p], ARCS: g.ARCS[p], EntropySum: g.EntropySum[p],
		})
	})
	return out
}

// bothGraphs builds the collection's blocking graph by the reference
// and by the CSR builder.
func bothGraphs(c *blocking.Collection) map[string]*edgelist.Graph {
	return map[string]*edgelist.Graph{
		"reference": edgelist.Build(c),
		"csr":       asEdgeList(BuildCSR(c)),
	}
}

func paperGraphs() map[string]*edgelist.Graph {
	return bothGraphs(blocking.TokenBlocking(datasets.PaperExample()))
}

// entropyMean is h(B_uv), the mean entropy of the edge's shared blocks.
func entropyMean(e *edgelist.Edge) float64 { return e.EntropySum / float64(e.Common) }

// forBoth runs check on each builder's graph as a subtest.
func forBoth(t *testing.T, graphs map[string]*edgelist.Graph, check func(t *testing.T, g *edgelist.Graph)) {
	t.Helper()
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) { check(t, g) })
	}
}

// TestBuildPaperFigure1c: the blocking graph of Figure 1c has 6 edges
// with CBS weights 4 (p1-p3), 4 (p2-p4), 3 (p1-p4), 4 (p2-p3),
// 1 (p1-p2), 1 (p3-p4).
func TestBuildPaperFigure1c(t *testing.T) {
	forBoth(t, paperGraphs(), func(t *testing.T, g *edgelist.Graph) {
		if g.NumEdges() != 6 {
			t.Fatalf("edges = %d, want 6 (complete graph on p1..p4)", g.NumEdges())
		}
		wantCommon := map[model.IDPair]int32{
			model.MakePair(0, 2): 4, // p1-p3: car, main, abram, jr
			model.MakePair(1, 3): 4, // p2-p4: ellen, smith, ny, abram
			model.MakePair(0, 3): 3, // p1-p4: 1985, street, abram
			model.MakePair(1, 2): 4, // p2-p3: 85, st, retail, abram
			model.MakePair(0, 1): 1, // p1-p2: abram
			model.MakePair(2, 3): 1, // p3-p4: abram
		}
		for pair, want := range wantCommon {
			e := g.EdgeBetween(int(pair.U), int(pair.V))
			if e == nil {
				t.Fatalf("edge %v missing", pair)
			}
			if e.Common != want {
				t.Errorf("edge %v common = %d, want %d", pair, e.Common, want)
			}
		}
	})
}

func TestBuildStatistics(t *testing.T) {
	forBoth(t, paperGraphs(), func(t *testing.T, g *edgelist.Graph) {
		if g.TotalBlocks != 12 {
			t.Errorf("TotalBlocks = %d, want 12", g.TotalBlocks)
		}
		if g.TotalComparisons != 17 {
			t.Errorf("TotalComparisons = %d, want 17", g.TotalComparisons)
		}
		// |B_p1| = 6 and |B_p3| = 7 are the Table 1 marginals; p2 and p4
		// follow by direct count (p2: ellen smith 85 retail abram st ny;
		// p4: ellen smith 1985 abram street ny).
		want := []int32{6, 7, 7, 6}
		for i, w := range want {
			if g.BlockCounts[i] != w {
				t.Errorf("BlockCounts[%d] = %d, want %d", i, g.BlockCounts[i], w)
			}
		}
		// Complete graph on 4 nodes: degree 3 each.
		for i, d := range g.Degrees {
			if d != 3 {
				t.Errorf("Degrees[%d] = %d, want 3", i, d)
			}
		}
	})
}

func TestEdgesSortedAndCanonical(t *testing.T) {
	forBoth(t, paperGraphs(), func(t *testing.T, g *edgelist.Graph) {
		for i := range g.Edges {
			e := &g.Edges[i]
			if e.U >= e.V {
				t.Errorf("edge %d not canonical: (%d,%d)", i, e.U, e.V)
			}
			if i > 0 {
				prev := g.Edges[i-1].Pair().Key()
				if prev >= e.Pair().Key() {
					t.Error("edges not sorted")
				}
			}
		}
	})
}

func TestARCSAccumulation(t *testing.T) {
	forBoth(t, paperGraphs(), func(t *testing.T, g *edgelist.Graph) {
		// p1-p3 share car(1 cmp), main(1), jr(1) and abram(6 cmps):
		// ARCS = 3*1 + 1/6.
		e := g.EdgeBetween(0, 2)
		want := 3 + 1.0/6
		if math.Abs(e.ARCS-want) > 1e-12 {
			t.Errorf("ARCS(p1,p3) = %v, want %v", e.ARCS, want)
		}
		// p1-p2 share only abram: ARCS = 1/6.
		e = g.EdgeBetween(0, 1)
		if math.Abs(e.ARCS-1.0/6) > 1e-12 {
			t.Errorf("ARCS(p1,p2) = %v, want 1/6", e.ARCS)
		}
	})
}

func TestEntropyMeanDefaultBlocks(t *testing.T) {
	forBoth(t, paperGraphs(), func(t *testing.T, g *edgelist.Graph) {
		// Token Blocking sets block entropy 1, so every edge's mean is 1.
		for i := range g.Edges {
			if got := entropyMean(&g.Edges[i]); got != 1 {
				t.Errorf("edge %d entropy mean = %v, want 1", i, got)
			}
		}
	})
}

func TestEntropyMeanWithClusterEntropy(t *testing.T) {
	// Hand-built collection: two blocks with different entropies sharing
	// the pair (0,1).
	c := blocking.FromBlocks(model.Dirty, 2, 0, []blocking.Block{
		{Key: "a", P1: []int32{0, 1}, Entropy: 3.5},
		{Key: "b", P1: []int32{0, 1}, Entropy: 2.0},
	})
	forBoth(t, bothGraphs(c), func(t *testing.T, g *edgelist.Graph) {
		e := g.EdgeBetween(0, 1)
		if e == nil {
			t.Fatal("edge missing")
		}
		if got := entropyMean(e); math.Abs(got-2.75) > 1e-12 {
			t.Errorf("entropy mean = %v, want 2.75", got)
		}
	})
}

func TestEdgeBetweenMissing(t *testing.T) {
	forBoth(t, paperGraphs(), func(t *testing.T, g *edgelist.Graph) {
		if g.EdgeBetween(0, 0) != nil {
			t.Error("self edge should not exist")
		}
	})
	c := blocking.FromBlocks(model.Dirty, 5, 0, []blocking.Block{
		{Key: "k", P1: []int32{0, 1}},
	})
	forBoth(t, bothGraphs(c), func(t *testing.T, g *edgelist.Graph) {
		if g.EdgeBetween(2, 3) != nil {
			t.Error("absent edge should be nil")
		}
		if g.EdgeBetween(0, 1) == nil {
			t.Error("present edge should be found")
		}
	})
}

func TestAdjacencyConsistent(t *testing.T) {
	forBoth(t, paperGraphs(), func(t *testing.T, g *edgelist.Graph) {
		for node, edges := range g.Adjacency() {
			if len(edges) != int(g.Degrees[node]) {
				t.Errorf("node %d adjacency %d != degree %d", node, len(edges), g.Degrees[node])
			}
			for _, ei := range edges {
				e := &g.Edges[ei]
				if int(e.U) != node && int(e.V) != node {
					t.Errorf("edge %d listed for node %d but connects (%d,%d)", ei, node, e.U, e.V)
				}
			}
		}
	})
}

func TestCleanCleanGraphOnlyCrossEdges(t *testing.T) {
	e1 := model.NewCollection("A")
	p := model.Profile{ID: "a"}
	p.Add("t", "x y")
	e1.Append(p)
	q := model.Profile{ID: "b"}
	q.Add("t", "x z")
	e1.Append(q)
	e2 := model.NewCollection("B")
	r := model.Profile{ID: "c"}
	r.Add("t", "x y z")
	e2.Append(r)
	ds := &model.Dataset{Name: "d", Kind: model.CleanClean, E1: e1, E2: e2, Truth: model.NewGroundTruth()}
	forBoth(t, bothGraphs(blocking.TokenBlocking(ds)), func(t *testing.T, g *edgelist.Graph) {
		// a-b co-occur in block "x" but are same-source: clean-clean blocks
		// never pair them.
		for i := range g.Edges {
			e := &g.Edges[i]
			if e.U < 2 && e.V < 2 {
				t.Errorf("same-source edge (%d,%d) in clean-clean graph", e.U, e.V)
			}
		}
		if g.NumEdges() != 2 {
			t.Errorf("edges = %d, want 2 (a-c, b-c)", g.NumEdges())
		}
	})
}

func TestBuildEmptyCollection(t *testing.T) {
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 3}
	forBoth(t, bothGraphs(c), func(t *testing.T, g *edgelist.Graph) {
		if g.NumEdges() != 0 || g.TotalBlocks != 0 {
			t.Error("empty collection should build empty graph")
		}
		if len(g.BlockCounts) != 3 || len(g.Degrees) != 3 {
			t.Error("per-node slices should still be sized")
		}
	})
}
