package prune

// FuzzPruneParallel is the differential fuzzer of the pruning
// decisions: the fuzz input derives a random block collection, a
// weighting scheme, a budget, a worker count and a party count (1–3),
// and every one of the seven prunings must retain exactly the pairs of
// the sort-based edge-list oracle — serially over the whole graph, and
// at the fuzzed worker count with the rows split between the fuzzed
// parties (ownership rotated by pruneB). A last leg pins CNP's
// selection cut at an explicit budget — anywhere from 1 to past the
// largest degree — to the oracle the same way. Registered in CI's fuzz
// smoke matrix.

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/blocking"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

func FuzzPruneParallel(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(42), uint8(1), uint8(2), uint8(1), uint8(0))
	f.Add(uint64(7919), uint8(0), uint8(5), uint8(3), uint8(7))
	f.Add(uint64(2654435761), uint8(1), uint8(6), uint8(4), uint8(16))
	// CBS weights at CEP's default budget over three parties: the budget
	// takes 32 of the 153 edges tying at the cut.
	f.Add(uint64(11), uint8(5), uint8(1), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, kindB, pruneB, schemeB, workersB uint8) {
		ctx := context.Background()
		rng := stats.NewRNG(seed | 1)
		kind := model.Dirty
		if kindB%2 == 1 {
			kind = model.CleanClean
		}
		c := blocking.RandomCollection(rng, kind, 20+rng.Intn(80), 15+rng.Intn(45))
		schemes := []weights.Scheme{
			{Kind: weights.CBS},
			{Kind: weights.ECBS},
			{Kind: weights.ARCS, Entropy: true},
			{Kind: weights.JS},
			{Kind: weights.EJS},
			{Kind: weights.ChiSquared, Entropy: true},
		}
		s := schemes[int(schemeB)%len(schemes)]
		csr := graph.BuildCSR(c)
		s.ApplyCSR(csr)
		// Workers spans small counts and counts far beyond the chunk
		// count of these small graphs; the parties take the kind byte's
		// spare bits.
		workers := 2 + int(workersB)%15
		parties := 1 + int(kindB/2)%3
		owner := func(u int32) int { return (int(u) + int(pruneB)) % parties }
		k := int(seed % 11) // 0 selects the scheme budgets
		g := edgelist.Build(c)
		applyRef(s, g)

		for _, sc := range []struct {
			name   string
			want   []int
			decide func(g *graph.CSR, workers int, p Parties) (Decision, error)
		}{
			{"wep", refWEP(g), func(g *graph.CSR, w int, p Parties) (Decision, error) { return WEP(ctx, g, w, p) }},
			{"cep", refCEP(g, k), func(g *graph.CSR, w int, p Parties) (Decision, error) { return CEP(ctx, g, k, w, p) }},
			{"wnp1", refWNP(g, Redefined), func(g *graph.CSR, w int, p Parties) (Decision, error) { return WNP(ctx, g, Redefined, w, p) }},
			{"wnp2", refWNP(g, Reciprocal), func(g *graph.CSR, w int, p Parties) (Decision, error) { return WNP(ctx, g, Reciprocal, w, p) }},
			{"cnp1", refCNP(g, k, Redefined), func(g *graph.CSR, w int, p Parties) (Decision, error) { return CNP(ctx, g, k, Redefined, w, p) }},
			{"cnp2", refCNP(g, k, Reciprocal), func(g *graph.CSR, w int, p Parties) (Decision, error) { return CNP(ctx, g, k, Reciprocal, w, p) }},
			{"blast", edgelist.BlastWNP(g, 2, 2), func(g *graph.CSR, w int, p Parties) (Decision, error) { return BlastWNP(ctx, g, 2, 2, w, p) }},
		} {
			want := g.Pairs(sc.want)
			d, err := sc.decide(csr, 1, Alone)
			got, err := pairsAfter(ctx, csr, 1, d, err)
			if err != nil {
				t.Fatalf("%s serial: %v", sc.name, err)
			}
			comparePairs(t, sc.name+" serial vs edge-list oracle", want, got)
			got = partyPairs(t, csr, parties, owner, workers, func(g *graph.CSR, p Parties) (Decision, error) {
				return sc.decide(g, workers, p)
			})
			comparePairs(t, fmt.Sprintf("%s workers=%d parties=%d vs edge-list oracle", sc.name, workers, parties), want, got)
		}

		maxDegree := 0
		for n := 0; n < csr.NumProfiles; n++ {
			if d := csr.Degree(n); d > maxDegree {
				maxDegree = d
			}
		}
		explicitK := 1 + int((seed>>8)%uint64(maxDegree+2))
		for _, mode := range []Mode{Redefined, Reciprocal} {
			got := partyPairs(t, csr, parties, owner, workers, func(g *graph.CSR, p Parties) (Decision, error) {
				return CNP(ctx, g, explicitK, mode, workers, p)
			})
			comparePairs(t, fmt.Sprintf("cnp k=%d %v workers=%d parties=%d vs edge-list oracle", explicitK, mode, workers, parties),
				g.Pairs(refCNP(g, explicitK, mode)), got)
		}
	})
}
