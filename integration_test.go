package blast

// Integration tests: the full pipeline across every benchmark dataset
// and configuration axis, plus randomized property tests over arbitrary
// small collections.

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"blast/internal/datasets"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// TestPipelineAllBenchmarks runs BLAST on every synthetic benchmark and
// asserts the invariants that must hold regardless of workload: valid
// output pairs, PQ never below the input block collection's, PC above a
// per-dataset floor.
func TestPipelineAllBenchmarks(t *testing.T) {
	floors := map[string]float64{
		"ar1": 0.95, "ar2": 0.90, "prd": 0.95, "mov": 0.95, "dbp": 0.80,
		"census": 0.85, "cora": 0.30, "cddb": 0.85,
	}
	scales := map[string]float64{
		"ar1": 0.05, "ar2": 0.01, "prd": 0.1, "mov": 0.01, "dbp": 0.02,
		"census": 0.2, "cora": 0.2, "cddb": 0.02,
	}
	for _, name := range append(datasets.CleanCleanNames(), datasets.DirtyNames()...) {
		name := name
		t.Run(name, func(t *testing.T) {
			gen, err := datasets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ds := gen(scales[name], 42)
			res, err := Run(ds, DefaultOptions())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Quality.PC < floors[name] {
				t.Errorf("PC = %.3f below floor %.2f", res.Quality.PC, floors[name])
			}
			if res.Quality.PQ < res.BlockQuality.PQ {
				t.Errorf("meta-blocking reduced PQ: %.4f -> %.4f", res.BlockQuality.PQ, res.Quality.PQ)
			}
			if int64(len(res.Pairs)) > res.Blocks.AggregateCardinality() {
				t.Error("more pairs than input comparisons")
			}
			for _, p := range res.Pairs {
				if !ds.Comparable(int(p.U), int(p.V)) {
					t.Fatalf("invalid pair %v", p)
				}
			}
		})
	}
}

// TestPipelineConfigurationMatrix exercises every pruning x weighting
// combination on one dataset: all must produce valid, deduplicated
// output (the harness's start state: Run, staged MetaBlock and an
// Index agree, and the Index's candidate lists are its distinct pairs).
func TestPipelineConfigurationMatrix(t *testing.T) {
	space{
		data:     []data{registryData("ar1", 0.03, 8, 0)},
		schemes:  schemesOf(weights.ARCS, weights.CBS, weights.ECBS, weights.JS, weights.EJS, weights.ChiSquared),
		prunings: allPrunings,
	}.run(t)
}

// randomDataset synthesizes an arbitrary small dirty dataset from fuzz
// bytes: profile count, attribute names and token choices all derive
// from the input.
func randomDataset(raw []byte) *model.Dataset {
	rng := stats.NewRNG(uint64(len(raw)) + 1)
	for _, b := range raw {
		rng = stats.NewRNG(rng.Uint64() ^ uint64(b))
	}
	words := []string{"alpha", "beta", "gamma", "delta", "abram", "ellen", "85", "1985", "ny", "main"}
	attrs := []string{"name", "addr", "year", "note"}
	n := 2 + rng.Intn(14)
	e := model.NewCollection("rand")
	for i := 0; i < n; i++ {
		p := model.Profile{ID: fmt.Sprintf("r%d", i)}
		na := 1 + rng.Intn(len(attrs))
		for a := 0; a < na; a++ {
			nt := 1 + rng.Intn(4)
			var toks []string
			for j := 0; j < nt; j++ {
				toks = append(toks, words[rng.Intn(len(words))])
			}
			p.Add(attrs[rng.Intn(len(attrs))], strings.Join(toks, " "))
		}
		e.Append(p)
	}
	truth := model.NewGroundTruth()
	if n >= 2 {
		truth.Add(0, 1)
	}
	return &model.Dataset{Name: "rand", Kind: model.Dirty, E1: e, Truth: truth}
}

// TestPipelineNeverPanicsOnRandomData: arbitrary inputs must flow
// through the whole pipeline without panics and with valid outputs.
func TestPipelineNeverPanicsOnRandomData(t *testing.T) {
	f := func(raw []byte) bool {
		ds := randomDataset(raw)
		for _, induction := range []Induction{LMI, AC, NoInduction} {
			opt := DefaultOptions()
			opt.Induction = induction
			res, err := Run(ds, opt)
			if err != nil {
				return false
			}
			for _, p := range res.Pairs {
				if int(p.U) < 0 || int(p.V) >= ds.NumProfiles() || p.U >= p.V {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPipelineMonotoneInC: BLAST's c parameter trades precision for
// recall monotonically (more retained comparisons as c grows).
func TestPipelineMonotoneInC(t *testing.T) {
	ds := datasets.Census(0.3, 13)
	prev := -1
	for _, c := range []float64{1, 1.5, 2, 3, 5, 10} {
		opt := DefaultOptions()
		opt.C = c
		res, err := Run(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) < prev {
			t.Errorf("c=%v retained %d < previous %d", c, len(res.Pairs), prev)
		}
		prev = len(res.Pairs)
	}
}

// TestSeedStability: the same seed yields identical results end to end;
// different dataset seeds yield different datasets but the pipeline's
// qualitative outcome (high PC) persists.
func TestSeedStability(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		ds := datasets.PRD(0.05, seed)
		a, err := Run(ds, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(ds, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Pairs) != len(b.Pairs) {
			t.Fatalf("seed %d: nondeterministic pair count", seed)
		}
		for i := range a.Pairs {
			if a.Pairs[i] != b.Pairs[i] {
				t.Fatalf("seed %d: nondeterministic pairs", seed)
			}
		}
		if a.Quality.PC < 0.9 {
			t.Errorf("seed %d: PC = %v", seed, a.Quality.PC)
		}
	}
}

// TestStandardBlockingEquivalence reproduces the Section 4.1 claim
// ("Blast vs. Schema-based Blocking"): on fully mappable datasets the
// LMI partitioning is equivalent to the manual schema alignment, so
// BLAST over Standard Blocking and BLAST over LMI blocks achieve the
// same PC and PQ.
func TestStandardBlockingEquivalence(t *testing.T) {
	for _, name := range []string{"ar1", "ar2", "prd"} {
		name := name
		t.Run(name, func(t *testing.T) {
			gen, _ := datasets.ByName(name)
			scale := 0.05
			if name == "ar2" {
				scale = 0.01
			}
			ds := gen(scale, 17)

			lmiRes, err := Run(ds, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}

			// The LMI partitioning must align exactly the manually
			// aligned attribute pairs (glue cluster empty or singleton
			// attributes only).
			align, ok := datasets.ManualAlignment(name)
			if !ok {
				t.Fatal("alignment missing")
			}
			groups := make(map[string][2]int)
			for key, id := range align {
				src := 0
				if key[0] == "1" {
					src = 1
				}
				cl, found := lmiRes.Partitioning.ClusterOf(src, key[1])
				if !found {
					t.Fatalf("attribute %v not in partitioning", key)
				}
				g := groups[id]
				g[src] = cl
				groups[id] = g
			}
			for id, g := range groups {
				if g[0] != g[1] {
					t.Errorf("aligned attributes %s in clusters %d vs %d", id, g[0], g[1])
				}
				if g[0] == 0 {
					t.Errorf("aligned attributes %s fell into the glue cluster", id)
				}
			}
		})
	}
}
