package prune

// FuzzPruneParallel is the serial-vs-parallel differential fuzzer of
// the parallel pruning passes: the fuzz input derives a random block
// collection, a weighting scheme, a pruning scheme with its knobs, and
// a worker count, and the parallel output must be byte-identical to the
// serial streaming scheme. A second leg pins CNP's selection cut at an
// explicit budget — anywhere from 1 to past the largest degree — to
// the sort-based edge-list oracle, both modes, at the fuzzed worker
// count. Registered in CI's fuzz smoke matrix.

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
		// Workers spans serial, small counts, and counts far beyond the
		// chunk count of these small graphs.
		workers := 2 + int(workersB)%15
		k := int(seed % 11) // 0 selects the scheme budgets

		type scheme struct {
			name string
			run  func(workers int) ([]model.IDPair, error)
		}
		all := []scheme{
			{"wep", func(w int) ([]model.IDPair, error) { return WEPStream(ctx, csr, w) }},
			{"cep", func(w int) ([]model.IDPair, error) { return CEPStream(ctx, csr, k, w) }},
			{"wnp1", func(w int) ([]model.IDPair, error) { return WNPStream(ctx, csr, Redefined, w) }},
			{"wnp2", func(w int) ([]model.IDPair, error) { return WNPStream(ctx, csr, Reciprocal, w) }},
			{"cnp1", func(w int) ([]model.IDPair, error) { return CNPStream(ctx, csr, k, Redefined, w) }},
			{"cnp2", func(w int) ([]model.IDPair, error) { return CNPStream(ctx, csr, k, Reciprocal, w) }},
			{"blast", func(w int) ([]model.IDPair, error) { return BlastWNPStream(ctx, csr, 2, 2, w) }},
		}
		sc := all[int(pruneB)%len(all)]
		want, err := sc.run(1)
		if err != nil {
			t.Fatalf("%s serial: %v", sc.name, err)
		}
		got, err := sc.run(workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", sc.name, workers, err)
		}
		if len(want) != len(got) {
			t.Fatalf("%s workers=%d: %d pairs, want %d", sc.name, workers, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s workers=%d: pair %d = %v, want %v", sc.name, workers, i, got[i], want[i])
			}
		}

		maxDegree := 0
		for n := 0; n < csr.NumProfiles; n++ {
			if d := csr.Degree(n); d > maxDegree {
				maxDegree = d
			}
		}
		explicitK := 1 + int((seed>>8)%uint64(maxDegree+2))
		g := edgelist.Build(c)
		applyRef(s, g)
		for _, mode := range []Mode{Redefined, Reciprocal} {
			got, err := CNPStream(ctx, csr, explicitK, mode, workers)
			if err != nil {
				t.Fatalf("cnp k=%d %v workers=%d: %v", explicitK, mode, workers, err)
			}
			comparePairs(t, fmt.Sprintf("cnp k=%d %v workers=%d vs edge-list oracle", explicitK, mode, workers),
				g.Pairs(refCNP(g, explicitK, mode)), got)
		}
	})
}
