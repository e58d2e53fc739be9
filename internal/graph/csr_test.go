package graph

import (
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/model"
	"blast/internal/stats"
)

// checkCSRMatchesGraph asserts that the CSR carries exactly the edges
// and (bit-identical) accumulators of the edge-list graph.
func checkCSRMatchesGraph(t *testing.T, g *Graph, csr *CSR) {
	t.Helper()
	if csr.NumProfiles != g.NumProfiles {
		t.Fatalf("NumProfiles = %d, want %d", csr.NumProfiles, g.NumProfiles)
	}
	if csr.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", csr.NumEdges(), g.NumEdges())
	}
	if csr.TotalBlocks != g.TotalBlocks || csr.TotalComparisons != g.TotalComparisons {
		t.Fatalf("totals = (%d, %d), want (%d, %d)",
			csr.TotalBlocks, csr.TotalComparisons, g.TotalBlocks, g.TotalComparisons)
	}
	for i := range g.BlockCounts {
		if csr.BlockCounts[i] != g.BlockCounts[i] {
			t.Fatalf("BlockCounts[%d] = %d, want %d", i, csr.BlockCounts[i], g.BlockCounts[i])
		}
	}
	for n := 0; n < g.NumProfiles; n++ {
		if csr.Degree(n) != int(g.Degrees[n]) {
			t.Fatalf("Degree(%d) = %d, want %d", n, csr.Degree(n), g.Degrees[n])
		}
	}
	// Every entry must mirror the corresponding edge's accumulators,
	// with runs sorted by ascending neighbor.
	for n := 0; n < csr.NumProfiles; n++ {
		prev := int32(-1)
		for p := csr.Offsets[n]; p < csr.Offsets[n+1]; p++ {
			v := csr.Neighbors[p]
			if v <= prev {
				t.Fatalf("node %d: neighbors not strictly ascending (%d after %d)", n, v, prev)
			}
			prev = v
			e := g.EdgeBetween(n, int(v))
			if e == nil {
				t.Fatalf("CSR edge (%d,%d) missing from Graph", n, v)
			}
			if csr.Common[p] != e.Common || csr.ARCS[p] != e.ARCS || csr.EntropySum[p] != e.EntropySum {
				t.Fatalf("edge (%d,%d): CSR stats (%d, %v, %v) != Graph (%d, %v, %v)",
					n, v, csr.Common[p], csr.ARCS[p], csr.EntropySum[p],
					e.Common, e.ARCS, e.EntropySum)
			}
		}
	}
	// Canonical iteration must enumerate exactly Edges, in order.
	i := 0
	csr.Canonical(func(u, v int32, p int64) {
		if i >= len(g.Edges) {
			t.Fatalf("Canonical enumerated more than %d edges", len(g.Edges))
		}
		if e := &g.Edges[i]; e.U != u || e.V != v {
			t.Fatalf("canonical edge %d = (%d,%d), want (%d,%d)", i, u, v, e.U, e.V)
		}
		i++
	})
	if i != len(g.Edges) {
		t.Fatalf("Canonical enumerated %d edges, want %d", i, len(g.Edges))
	}
}

func TestBuildCSRMatchesBuildOnPaperExample(t *testing.T) {
	c := blocking.TokenBlocking(datasets.PaperExample())
	checkCSRMatchesGraph(t, Build(c), BuildCSR(c))
}

func TestBuildCSRMatchesBuildOnRandomCollections(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 40+rng.Intn(60), 25+rng.Intn(40))
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d: invalid random collection: %v", seed, err)
			}
			checkCSRMatchesGraph(t, Build(c), BuildCSR(c))
		}
	}
}

func TestBuildCSRParallelMatchesSerial(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
		c := blocking.RandomCollection(rng, kind, 200, 150)
		serial := BuildCSR(c)
		for _, workers := range []int{0, 2, 3, 8} {
			par := BuildCSRParallel(c, workers)
			if len(par.Neighbors) != len(serial.Neighbors) {
				t.Fatalf("workers=%d: %d entries, want %d", workers, len(par.Neighbors), len(serial.Neighbors))
			}
			for i := range serial.Offsets {
				if par.Offsets[i] != serial.Offsets[i] {
					t.Fatalf("workers=%d: Offsets[%d] = %d, want %d", workers, i, par.Offsets[i], serial.Offsets[i])
				}
			}
			for i := range serial.Neighbors {
				if par.Neighbors[i] != serial.Neighbors[i] ||
					par.Common[i] != serial.Common[i] ||
					par.ARCS[i] != serial.ARCS[i] ||
					par.EntropySum[i] != serial.EntropySum[i] {
					t.Fatalf("workers=%d: entry %d differs", workers, i)
				}
			}
		}
	}
}

func TestBuildCSRSkipsComparisonFreeBlocks(t *testing.T) {
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 4}
	c.Blocks = []blocking.Block{
		{Key: "single", P1: []int32{2}, Entropy: 1},   // no comparisons
		{Key: "pair", P1: []int32{0, 1}, Entropy: 1},  // one comparison
		{Key: "lonely", P1: []int32{3}, Entropy: 0.5}, // no comparisons
	}
	g := BuildCSR(c)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 || g.Degree(3) != 0 {
		t.Error("singleton blocks should produce no adjacency")
	}
}

func TestBuildCSRRegistryDatasets(t *testing.T) {
	// Paper-shaped data at tiny scale: the CSR must agree with the
	// edge-list graph on a real token-blocked workload of each kind.
	for _, name := range []string{"ar1", "census"} {
		gen, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := blocking.CleanWorkflow(blocking.TokenBlocking(gen(0.05, 42)), 0.5, 0.8)
		checkCSRMatchesGraph(t, Build(c), BuildCSR(c))
	}
}

func TestReleaseStats(t *testing.T) {
	c := blocking.TokenBlocking(datasets.PaperExample())
	g := BuildCSR(c)
	g.ReleaseStats()
	if g.Common != nil || g.ARCS != nil || g.EntropySum != nil {
		t.Error("ReleaseStats should drop the accumulator arrays")
	}
	if len(g.Weights) != len(g.Neighbors) {
		t.Error("Weights must survive ReleaseStats")
	}
}

func TestCutRangesCoverAndBalance(t *testing.T) {
	rng := stats.NewRNG(3)
	offsets := make([]int64, 101)
	for i := 1; i < len(offsets); i++ {
		offsets[i] = offsets[i-1] + int64(rng.Intn(20))
	}
	n := len(offsets) - 1
	for _, workers := range []int{1, 2, 3, 7, 100} {
		bounds := cutRanges(offsets, workers)
		if bounds[0] != 0 || bounds[workers] != n {
			t.Fatalf("workers=%d: bounds do not cover: %v", workers, bounds)
		}
		for w := 0; w < workers; w++ {
			if bounds[w] > bounds[w+1] {
				t.Fatalf("workers=%d: bounds not monotone: %v", workers, bounds)
			}
		}
	}
}

// TestCanonicalMirrorPointsBack pins the cursor sweep's invariant: for
// every canonical edge, p sits in u's run pointing at v and mp sits in
// v's run pointing back at u.
func TestCanonicalMirrorPointsBack(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed * 31337)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 30+rng.Intn(50), 25+rng.Intn(25))
			g := BuildCSR(c)
			edges := 0
			g.CanonicalMirror(func(u, v int32, p, mp int64) {
				edges++
				if p < g.Offsets[u] || p >= g.Offsets[u+1] || g.Neighbors[p] != v {
					t.Fatalf("edge (%d,%d): canonical entry %d is not u's entry for v", u, v, p)
				}
				if mp < g.Offsets[v] || mp >= g.Offsets[v+1] || g.Neighbors[mp] != u {
					t.Fatalf("edge (%d,%d): mirror entry %d is not v's entry for u", u, v, mp)
				}
			})
			if edges != g.NumEdges() {
				t.Fatalf("sweep visited %d edges, want %d", edges, g.NumEdges())
			}
		}
	}
}
