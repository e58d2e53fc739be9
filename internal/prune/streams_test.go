package prune

import (
	"context"
	"sync"
	"testing"

	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/shard"
)

// The Stream functions decide one scheme over a whole graph (Alone) and
// collect its retained pairs in canonical order (nil when nothing is
// retained): the shape the tests of this package compare against the
// edge-list reference. partyPairs runs a decision through N parties.

// WEPStream is WEP's retained pairs.
func WEPStream(ctx context.Context, g *graph.CSR, workers int) ([]model.IDPair, error) {
	d, err := WEP(ctx, g, workers, Alone)
	return pairsAfter(ctx, g, workers, d, err)
}

// CEPStream is CEP's retained pairs.
func CEPStream(ctx context.Context, g *graph.CSR, k, workers int) ([]model.IDPair, error) {
	d, err := CEP(ctx, g, k, workers, Alone)
	return pairsAfter(ctx, g, workers, d, err)
}

// WNPStream is WNP's retained pairs.
func WNPStream(ctx context.Context, g *graph.CSR, mode Mode, workers int) ([]model.IDPair, error) {
	d, err := WNP(ctx, g, mode, workers, Alone)
	return pairsAfter(ctx, g, workers, d, err)
}

// BlastWNPStream is BlastWNP's retained pairs.
func BlastWNPStream(ctx context.Context, g *graph.CSR, c, d float64, workers int) ([]model.IDPair, error) {
	dec, err := BlastWNP(ctx, g, c, d, workers, Alone)
	return pairsAfter(ctx, g, workers, dec, err)
}

// CNPStream is CNP's retained pairs.
func CNPStream(ctx context.Context, g *graph.CSR, k int, mode Mode, workers int) ([]model.IDPair, error) {
	d, err := CNP(ctx, g, k, mode, workers, Alone)
	return pairsAfter(ctx, g, workers, d, err)
}

// pairsAfter collects a finished decision's pairs.
func pairsAfter(ctx context.Context, g *graph.CSR, workers int, d Decision, err error) ([]model.IDPair, error) {
	if err != nil {
		return nil, err
	}
	return CollectPairs(ctx, g, workers, d.Keep)
}

// decider runs one scheme's decision over the rows a party holds.
type decider func(g *graph.CSR, p Parties) (Decision, error)

// exchangeParties are in-process parties over one shard.Exchange, row u
// held by party owner(u).
type exchangeParties struct {
	ex    *shard.Exchange
	slot  int
	owner func(int32) int
}

func (p exchangeParties) Gather(v any) ([]any, error) { return p.ex.Gather(p.slot, v) }
func (p exchangeParties) Owner(u int32) int           { return p.owner(u) }

// ownedRows is the owned-rows graph of one party: g's runs for the rows
// owns selects, every other row empty, global block counts.
func ownedRows(g *graph.CSR, owns func(int32) bool) *graph.CSR {
	o := &graph.CSR{NumProfiles: g.NumProfiles, Offsets: make([]int64, g.NumProfiles+1), BlockCounts: g.BlockCounts}
	for u := 0; u < g.NumProfiles; u++ {
		if owns(int32(u)) {
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			o.Neighbors = append(o.Neighbors, g.Neighbors[lo:hi]...)
			o.Weights = append(o.Weights, g.Weights[lo:hi]...)
		}
		o.Offsets[u+1] = int64(len(o.Neighbors))
	}
	return o
}

// partyPairs splits the rows of a resident graph between n parties by
// owner, runs decide on every party at once over the rows it holds,
// collects each party's rows, and returns the retained pairs in
// canonical order: pair (u, v) is read off row u, wherever it sits.
func partyPairs(t *testing.T, g *graph.CSR, n int, owner func(int32) int, workers int, decide decider) []model.IDPair {
	t.Helper()
	ex := shard.NewExchange(n)
	rows := make([]*Rows, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			own := ownedRows(g, func(u int32) bool { return owner(u) == k })
			d, err := decide(own, exchangeParties{ex: ex, slot: k, owner: owner})
			if err == nil {
				rows[k], err = CollectOwned(context.Background(), own, workers, d.Keep)
			}
			if err != nil {
				ex.Poison(err)
			}
			errs[k] = err
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("party %d of %d: %v", k, n, err)
		}
	}
	var pairs []model.IDPair
	for u := 0; u < g.NumProfiles; u++ {
		r := rows[owner(int32(u))]
		for p := r.Offsets[u]; p < r.Offsets[u+1]; p++ {
			if v := r.Neighbors[p]; int(v) > u {
				pairs = append(pairs, model.IDPair{U: int32(u), V: v})
			}
		}
	}
	return pairs
}
