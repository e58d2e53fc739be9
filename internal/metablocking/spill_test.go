package metablocking

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// TestSpilledReweigh is the regression test of the stale-weights bug: a
// spilled CSR weighted a second time must prune on the second scheme's
// weights, not on pages of the first still sitting in its cache (or in
// the segment the swap used to leak). One spilled graph is re-weighted
// χ²·h → CBS → χ²·h and after every weighting each pruning's pairs must
// equal the resident CSR's.
func TestSpilledReweigh(t *testing.T) {
	ctx := context.Background()
	c := blocking.RandomCollection(stats.NewRNG(23), model.Dirty, 300, 200)
	resident := graph.BuildCSR(c)
	// The cache holds the whole graph, so without the invalidation every
	// weights page of the first scheme would still be served.
	spilled, err := graph.BuildCSRSpillCtx(ctx, c, graph.SpillOptions{
		Dir: t.TempDir(), MemoryBudget: -1, PageEntries: 64, CacheBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.Spilled() {
		t.Fatal("zero-budget build did not spill")
	}
	defer func() {
		if err := spilled.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	chi2h := weights.Scheme{Kind: weights.ChiSquared, Entropy: true}
	cbs := weights.Scheme{Kind: weights.CBS}
	for round, s := range []weights.Scheme{chi2h, cbs, chi2h} {
		s.ApplyCSR(resident)
		s.ApplyCSR(spilled)
		for _, p := range allPrunings {
			cfg := Config{Scheme: s, Pruning: p, C: 2, D: 2, Workers: 2}
			want, err := PruneCSR(ctx, resident, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PruneCSR(ctx, spilled, cfg)
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, fmt.Sprintf("round %d %s+%s spilled", round, s.Name(), p), want, got)
		}
		if err := spilled.Err(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
