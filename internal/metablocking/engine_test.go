package metablocking

// The engine-equivalence harness, the system-level oracle of Phase 3:
// Run — CSR build, weighting kernel, streaming pruning — must retain
// pair lists byte-identical to the test-only edge-list reference (serial
// map-and-sort build, one sort-based pruning per scheme) for every
// Pruning x Scheme x Workers combination, on randomized block
// collections of both kinds and on the registry benchmarks.

import (
	"fmt"
	"runtime"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/stats"
	"blast/internal/weights"
)

var allPrunings = []Pruning{WEP, CEP, WNP1, WNP2, CNP1, CNP2, BlastWNP}

func allSchemes() []weights.Scheme {
	kinds := []weights.Kind{
		weights.CBS, weights.ECBS, weights.ARCS,
		weights.JS, weights.EJS, weights.ChiSquared,
	}
	var out []weights.Scheme
	for _, k := range kinds {
		out = append(out, weights.Scheme{Kind: k}, weights.Scheme{Kind: k, Entropy: true})
	}
	return out
}

// samePairs fails the test unless the two runs retained byte-identical
// pair lists.
func samePairs(t *testing.T, label string, want, got []model.IDPair) {
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

// referencePairs runs a configuration through the edge-list reference,
// handing it what it cannot import: the production per-edge formula,
// the defaulted CEP/CNP budgets and the row width of WEP's summation
// order.
func referencePairs(c *blocking.Collection, cfg Config) []model.IDPair {
	g := edgelist.Build(c)
	g.Weigh(cfg.Scheme.Weigher(g.NumEdges(), g.TotalBlocks).Weight)
	k := cfg.K
	var idx []int
	switch cfg.Pruning {
	case WEP:
		idx = edgelist.WEP(g, prune.ChunkNodes)
	case CEP:
		if k <= 0 {
			k = prune.CEPBudget(g.BlockCounts)
		}
		idx = edgelist.CEP(g, k)
	case WNP1, WNP2:
		idx = edgelist.WNP(g, cfg.Pruning == WNP2)
	case CNP1, CNP2:
		if k <= 0 {
			k = prune.CNPBudget(g.BlockCounts)
		}
		idx = edgelist.CNP(g, k, cfg.Pruning == CNP2)
	case BlastWNP:
		idx = edgelist.BlastWNP(g, cfg.C, cfg.D)
	default:
		panic(fmt.Sprintf("no reference for pruning %v", cfg.Pruning))
	}
	return g.Pairs(idx)
}

// engineWorkersAxis is the Workers matrix the engine is held to:
// automatic (0 = GOMAXPROCS), serial, and explicit counts — graph build,
// weighting AND pruning must be byte-identical at every value.
var engineWorkersAxis = []int{0, 1, 2, 4}

// checkEngineEquivalence runs one configuration through the reference
// and through the engine across the full Workers axis, and asserts
// identical output.
func checkEngineEquivalence(t *testing.T, c *blocking.Collection, cfg Config) {
	t.Helper()
	want := referencePairs(c, cfg)
	label := fmt.Sprint(cfg.Scheme) + "+" + cfg.Pruning.String()
	for _, workers := range engineWorkersAxis {
		cfg.Workers = workers
		samePairs(t, fmt.Sprintf("%s workers=%d", label, workers), want, Run(c, cfg).Pairs)
	}
}

// TestEngineEquivalenceRandomized is the property harness: seeded random
// collections, every Workers x Pruning x Scheme combination, the engine
// byte-identical to the reference.
func TestEngineEquivalenceRandomized(t *testing.T) {
	schemes := allSchemes()
	for seed := uint64(1); seed <= 3; seed++ {
		rng := stats.NewRNG(seed)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 50+rng.Intn(70), 30+rng.Intn(50))
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d: invalid random collection: %v", seed, err)
			}
			for _, p := range allPrunings {
				for _, s := range schemes {
					checkEngineEquivalence(t, c, Config{
						Scheme: s, Pruning: p, C: 2, D: 2,
					})
				}
			}
		}
	}
}

// TestEngineEquivalenceConfigKnobs varies the scheme-independent knobs
// (explicit K budgets, non-default C/D) on one random collection.
func TestEngineEquivalenceConfigKnobs(t *testing.T) {
	rng := stats.NewRNG(99)
	c := blocking.RandomCollection(rng, model.Dirty, 80, 60)
	for _, cfg := range []Config{
		{Scheme: weights.Blast(), Pruning: BlastWNP, C: 1, D: 2},
		{Scheme: weights.Blast(), Pruning: BlastWNP, C: 4, D: 1},
		{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: CEP, K: 1},
		{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: CEP, K: 7},
		{Scheme: weights.Scheme{Kind: weights.JS}, Pruning: CNP1, K: 2},
		{Scheme: weights.Scheme{Kind: weights.JS}, Pruning: CNP2, K: 3},
	} {
		checkEngineEquivalence(t, c, cfg)
	}
}

// TestEngineEquivalenceRegistryDatasets is the acceptance criterion: on
// every registry benchmark (token-blocked and cleaned at small scale),
// the engine returns byte-identical pairs to the edge-list reference.
func TestEngineEquivalenceRegistryDatasets(t *testing.T) {
	scales := map[string]float64{"dbp": 0.02, "mov": 0.01, "ar2": 0.02, "cddb": 0.03}
	for _, name := range append(datasets.CleanCleanNames(), datasets.DirtyNames()...) {
		gen, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scale, ok := scales[name]
		if !ok {
			scale = 0.05
		}
		c := blocking.CleanWorkflow(blocking.TokenBlocking(gen(scale, 42)), 0.5, 0.8)
		for _, cfg := range []Config{
			DefaultConfig(),
			{Scheme: weights.Scheme{Kind: weights.JS}, Pruning: WNP2},
			{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: CNP1},
		} {
			t.Run(name+"/"+cfg.Pruning.String(), func(t *testing.T) {
				checkEngineEquivalence(t, c, cfg)
			})
		}
	}
}

// TestNodeCentricResultShape: a run returns canonical sorted pairs and a
// non-nil (possibly empty) pair list.
func TestNodeCentricResultShape(t *testing.T) {
	res := Run(paperBlocks(), DefaultConfig())
	if len(res.Pairs) == 0 {
		t.Fatal("BLAST retains the two matches of the paper example")
	}
	for i, p := range res.Pairs {
		if p.U >= p.V {
			t.Errorf("pair %d not canonical: %v", i, p)
		}
		if i > 0 && res.Pairs[i-1].Key() >= p.Key() {
			t.Error("pairs not sorted")
		}
	}
	empty := Run(&blocking.Collection{Kind: model.Dirty, NumProfiles: 3}, DefaultConfig())
	if empty.Pairs == nil || len(empty.Pairs) != 0 {
		t.Errorf("edgeless collection: Pairs = %v, want empty and non-nil", empty.Pairs)
	}
}

// TestNodeCentricPanicsOnUnknownPruning: the spilled build reaches the
// same pruning dispatch as the resident one.
func TestNodeCentricPanicsOnUnknownPruning(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown pruning should panic")
		}
	}()
	cfg := Config{Scheme: weights.Blast(), Pruning: Pruning(42), Spill: &graph.SpillOptions{Dir: t.TempDir(), MemoryBudget: -1}}
	Run(paperBlocks(), cfg)
}

// TestResolveWorkers is the regression test for the documented
// workers=0 -> GOMAXPROCS contract: Run must not silently fall back to
// the serial path when Workers is left zero.
func TestResolveWorkers(t *testing.T) {
	if got, want := resolveWorkers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("resolveWorkers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got, want := resolveWorkers(-3), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("resolveWorkers(-3) = %d, want GOMAXPROCS = %d", got, want)
	}
	if resolveWorkers(1) != 1 || resolveWorkers(5) != 5 {
		t.Error("explicit worker counts must pass through")
	}
}

func TestRunResolvesZeroWorkers(t *testing.T) {
	// The CSR builder partitions work without duplication, so Workers=0
	// auto-parallelizes at any scale.
	res := Run(paperBlocks(), DefaultConfig())
	if want := runtime.GOMAXPROCS(0); res.Workers != want {
		t.Errorf("Workers = %d, want GOMAXPROCS = %d", res.Workers, want)
	}
	// Explicit requests pass through.
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		if res := Run(paperBlocks(), cfg); res.Workers != workers {
			t.Errorf("Workers = %d, want %d", res.Workers, workers)
		}
	}
}
