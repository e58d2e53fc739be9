package metablocking

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/weights"
)

func paperBlocks() *blocking.Collection {
	return blocking.TokenBlocking(datasets.PaperExample())
}

func TestRunBlastOnPaperExample(t *testing.T) {
	ds := datasets.PaperExample()
	res := Run(paperBlocks(), DefaultConfig())
	q := metrics.EvaluatePairs(res.Pairs, ds.Truth)
	if q.PC != 1 || q.PQ != 1 {
		t.Errorf("BLAST on Figure 1: PC=%v PQ=%v, want perfect", q.PC, q.PQ)
	}
	if len(res.Pairs) != 2 {
		t.Errorf("comparisons = %d, want 2", len(res.Pairs))
	}
}

func TestRunAllPruningsProduceSubsetOfGraph(t *testing.T) {
	c := paperBlocks()
	all := edgelist.Build(c)
	valid := make(map[uint64]bool)
	for i := range all.Edges {
		valid[all.Edges[i].Pair().Key()] = true
	}
	for _, p := range []Pruning{WEP, CEP, WNP1, WNP2, CNP1, CNP2, BlastWNP} {
		cfg := DefaultConfig()
		cfg.Pruning = p
		res := Run(c, cfg)
		if int64(len(res.Pairs)) > all.TotalComparisons {
			t.Errorf("%v retained more pairs than ||B||", p)
		}
		seen := make(map[uint64]bool)
		for _, pair := range res.Pairs {
			if !valid[pair.Key()] {
				t.Errorf("%v invented pair %v", p, pair)
			}
			if seen[pair.Key()] {
				t.Errorf("%v repeated pair %v (redundant comparison)", p, pair)
			}
			seen[pair.Key()] = true
		}
	}
}

func TestMetaBlockingNeverIncreasesComparisons(t *testing.T) {
	c := paperBlocks()
	base := c.AggregateCardinality()
	for _, p := range []Pruning{WEP, CEP, WNP1, WNP2, CNP1, CNP2, BlastWNP} {
		cfg := DefaultConfig()
		cfg.Pruning = p
		res := Run(c, cfg)
		if int64(len(res.Pairs)) > base {
			t.Errorf("%v: %d comparisons > input %d", p, int64(len(res.Pairs)), base)
		}
	}
}

// TestRunOnGraphMatchesRun: a prebuilt CSR re-weighed under a second
// scheme (and a third, and the first again) retains what a fresh run
// under that scheme retains — the ablation-grid pattern of Tables 4/5/7.
func TestRunOnGraphMatchesRun(t *testing.T) {
	c := paperBlocks()
	g := graph.BuildCSR(c)
	for _, s := range []weights.Scheme{
		weights.Blast(), {Kind: weights.CBS}, {Kind: weights.EJS, Entropy: true}, weights.Blast(),
	} {
		cfg := DefaultConfig()
		cfg.Scheme = s
		b, err := RunOnCSR(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprint(s), Run(c, cfg).Pairs, b.Pairs)
		if g.Common == nil {
			t.Fatalf("%v: RunOnCSR released the statistics the next cell needs", s)
		}
		if b.GraphTime != 0 || b.Workers != 0 {
			t.Errorf("%v: RunOnCSR builds no graph, got GraphTime %v Workers %d", s, b.GraphTime, b.Workers)
		}
	}
}

func TestConfigVariants(t *testing.T) {
	c := paperBlocks()
	// CBS + WNP1 reproduces Figure 1d: 4 retained edges.
	res := Run(c, Config{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: WNP1})
	if len(res.Pairs) != 4 {
		t.Errorf("CBS+wnp1 retained %d, want 4", len(res.Pairs))
	}
	// CEP with explicit K.
	res = Run(c, Config{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: CEP, K: 2})
	if len(res.Pairs) != 2 {
		t.Errorf("CEP K=2 retained %d", len(res.Pairs))
	}
}

func TestOverheadAccounting(t *testing.T) {
	res := Run(paperBlocks(), DefaultConfig())
	if res.Overhead() != res.GraphTime+res.WeightTime+res.PruneTime {
		t.Error("Overhead mismatch")
	}
	if res.Overhead() < 0 {
		t.Error("negative overhead")
	}
}

// TestPairSet pins that a result retains each pair once.
func TestPairSet(t *testing.T) {
	res := Run(paperBlocks(), DefaultConfig())
	set := make(map[uint64]bool, len(res.Pairs))
	for _, p := range res.Pairs {
		if set[p.Key()] {
			t.Errorf("pair %v retained twice", p)
		}
		set[p.Key()] = true
	}
}

func TestPruningString(t *testing.T) {
	names := map[Pruning]string{
		WEP: "wep", CEP: "cep", WNP1: "wnp1", WNP2: "wnp2",
		CNP1: "cnp1", CNP2: "cnp2", BlastWNP: "blast-wnp",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Pruning(42).String() == "" {
		t.Error("unknown pruning should render")
	}
}

func TestRunPanicsOnUnknownPruning(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown pruning should panic")
		}
	}()
	Run(paperBlocks(), Config{Scheme: weights.Blast(), Pruning: Pruning(42)})
}

func TestPairsCanonicalOrder(t *testing.T) {
	res := Run(paperBlocks(), Config{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: WNP1})
	for i, p := range res.Pairs {
		if p.U >= p.V {
			t.Errorf("pair %d not canonical: %v", i, p)
		}
		if i > 0 && res.Pairs[i-1].Key() >= p.Key() {
			t.Error("pairs not sorted")
		}
	}
}

func TestCleanCleanMetaBlocking(t *testing.T) {
	// A small clean-clean dataset: meta-blocking only emits cross pairs.
	e1 := model.NewCollection("A")
	for _, s := range []string{"alpha beta gamma", "delta epsilon zeta"} {
		p := model.Profile{ID: s[:2]}
		p.Add("t", s)
		e1.Append(p)
	}
	e2 := model.NewCollection("B")
	for _, s := range []string{"alpha beta gamma", "delta theta iota"} {
		p := model.Profile{ID: s[:2]}
		p.Add("t", s)
		e2.Append(p)
	}
	g := model.NewGroundTruth()
	g.Add(0, 2)
	g.Add(1, 3)
	ds := &model.Dataset{Name: "cc", Kind: model.CleanClean, E1: e1, E2: e2, Truth: g}
	res := Run(blocking.TokenBlocking(ds), DefaultConfig())
	for _, p := range res.Pairs {
		if !ds.Comparable(int(p.U), int(p.V)) {
			t.Errorf("non-comparable pair %v emitted", p)
		}
	}
	q := metrics.EvaluatePairs(res.Pairs, ds.Truth)
	if q.PC != 1 {
		t.Errorf("PC = %v, want 1 (matches share whole profiles)", q.PC)
	}
}

func TestRunOnGraphAllPrunings(t *testing.T) {
	c := paperBlocks()
	g := graph.BuildCSR(c)
	for _, p := range []Pruning{WEP, CEP, WNP1, WNP2, CNP1, CNP2, BlastWNP} {
		cfg := Config{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: p, K: 3, C: 2, D: 2}
		res, err := RunOnCSR(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, p.String(), referencePairs(c, cfg), res.Pairs)
	}
}

func TestRunOnGraphPanicsOnUnknownPruning(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown pruning should panic")
		}
	}()
	g := graph.BuildCSR(paperBlocks())
	RunOnCSR(context.Background(), g, Config{Scheme: weights.Blast(), Pruning: Pruning(77)})
}

func TestRunWithWorkersMatchesSerial(t *testing.T) {
	c := paperBlocks()
	serial := Run(c, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Workers = 4
	par := Run(c, cfg)
	if len(serial.Pairs) != len(par.Pairs) {
		t.Fatalf("workers changed result: %d vs %d", len(serial.Pairs), len(par.Pairs))
	}
	for i := range serial.Pairs {
		if serial.Pairs[i] != par.Pairs[i] {
			t.Fatal("workers changed pairs")
		}
	}
}
