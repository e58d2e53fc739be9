package metablocking

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"testing"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/store"
	"blast/internal/weights"
)

// maskedRows is the rows oracle: prune for the pairs, resolve each pair
// to its two entries by the canonical mirror walk, reduce the thresholds
// in a pass of their own, then filter the full weighted graph through
// the mask. Three passes and a per-entry mask where
// FreezeCSR collects in the retention loop; they must agree to the bit.
// Its counts are the full graph's edges and PruneCSR's pairs.
func maskedRows(t *testing.T, g *graph.CSR, cfg Config) (*shard.Snapshot, []model.IDPair) {
	t.Helper()
	ctx := context.Background()
	pairs, err := PruneCSR(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, g.NumEntries())
	next := 0
	if err := canonicalMirror(g, func(u, v int32, pos, mirror int64) {
		if next < len(pairs) && pairs[next] == (model.IDPair{U: u, V: v}) {
			mask[pos], mask[mirror] = true, true
			next++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if next != len(pairs) {
		t.Fatalf("mirror walk resolved %d of %d pairs", next, len(pairs))
	}
	offsets := make([]int64, g.NumProfiles+1)
	var nbrs []int32
	var wts []float64
	for u := 0; u < g.NumProfiles; u++ {
		for p := g.Offsets[u]; p < g.Offsets[u+1]; p++ {
			if mask[p] {
				nbrs = append(nbrs, g.Neighbors[p])
				wts = append(wts, g.Weights[p])
			}
		}
		offsets[u+1] = int64(len(nbrs))
	}
	var theta []float64
	switch cfg.Pruning {
	case BlastWNP:
		theta, err = prune.BlastThresholds(ctx, g, cfg.C, 1)
	case WNP1, WNP2:
		theta, err = prune.MeanThresholds(ctx, g, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &shard.Snapshot{
		NumProfiles:   g.NumProfiles,
		NumEdges:      g.NumEdges(),
		RetainedPairs: len(pairs),
		Offsets:       offsets,
		Neighbors:     nbrs,
		Weights:       wts,
		Theta:         theta,
	}, pairs
}

func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameRows compares the global counts, rows [lo, hi) selected by owns —
// offsets relative to each side's own arrays — and, when theta is set,
// the thresholds.
func sameRows(t *testing.T, label string, want, got *shard.Snapshot, owns func(int32) bool, theta bool) {
	t.Helper()
	if got.NumProfiles != want.NumProfiles || got.NumEdges != want.NumEdges || got.RetainedPairs != want.RetainedPairs {
		t.Fatalf("%s: %d profiles, %d edges, %d retained, want %d, %d, %d", label,
			got.NumProfiles, got.NumEdges, got.RetainedPairs, want.NumProfiles, want.NumEdges, want.RetainedPairs)
	}
	if len(got.Offsets) != len(want.Offsets) {
		t.Fatalf("%s: %d offsets, want %d", label, len(got.Offsets), len(want.Offsets))
	}
	for u := 0; u+1 < len(want.Offsets); u++ {
		glo, ghi := got.Offsets[u], got.Offsets[u+1]
		if !owns(int32(u)) {
			if glo != ghi {
				t.Fatalf("%s: unowned row %d holds %d entries", label, u, ghi-glo)
			}
			continue
		}
		wlo, whi := want.Offsets[u], want.Offsets[u+1]
		if !slices.Equal(got.Neighbors[glo:ghi], want.Neighbors[wlo:whi]) {
			t.Fatalf("%s: row %d neighbors %v, want %v", label, u, got.Neighbors[glo:ghi], want.Neighbors[wlo:whi])
		}
		if !sameFloatBits(got.Weights[glo:ghi], want.Weights[wlo:whi]) {
			t.Fatalf("%s: row %d weights %v, want %v", label, u, got.Weights[glo:ghi], want.Weights[wlo:whi])
		}
	}
	if theta && ((got.Theta == nil) != (want.Theta == nil) || !sameFloatBits(got.Theta, want.Theta)) {
		t.Fatalf("%s: thresholds differ from the ones a separate pass reduces", label)
	}
}

// canonicalWalk lists the larger-neighbor entries of the rows, row by
// row: the retained pairs, if the rows are what they claim to be.
func canonicalWalk(r *shard.Snapshot) []model.IDPair {
	var pairs []model.IDPair
	for u := 0; u+1 < len(r.Offsets); u++ {
		for p := r.Offsets[u]; p < r.Offsets[u+1]; p++ {
			if v := r.Neighbors[p]; int(v) > u {
				pairs = append(pairs, model.IDPair{U: int32(u), V: v})
			}
		}
	}
	return pairs
}

// exParties are the parties of a partition whose row u party u%n
// holds, over one in-process exchange.
type exParties struct {
	ex      *shard.Exchange
	slot, n int
}

func (p exParties) Gather(v any) ([]any, error) { return p.ex.Gather(p.slot, v) }
func (p exParties) Owner(u int32) int           { return int(u) % p.n }

// freezeParties runs the production freeze (FreezeCSR) on every party
// of a partition at once, each over its owned-rows graph, and returns
// each party's rows; a failing party poisons the exchange, as a shard
// does.
func freezeParties(t *testing.T, owned []*graph.CSR, cfg Config) []*shard.Snapshot {
	t.Helper()
	ex := shard.NewExchange(len(owned))
	rows := make([]*shard.Snapshot, len(owned))
	errs := make([]error, len(owned))
	var wg sync.WaitGroup
	for k, g := range owned {
		wg.Add(1)
		go func(k int, g *graph.CSR) {
			defer wg.Done()
			rows[k], errs[k] = FreezeCSR(context.Background(), g, cfg, exParties{ex: ex, slot: k, n: len(owned)})
			if errs[k] != nil {
				ex.Poison(errs[k])
			}
		}(k, g)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("party %d of %d: %v", k, len(owned), err)
		}
	}
	return rows
}

// TestFrozenRowsMatchMaskedGraph holds the two row collectors to the
// oracle for every weighting kind with and without entropy, every
// pruning and 1, 2 and 4 workers: FreezeCSR over the resident graph and
// over a spilled one read a small page at a time, and FreezeCSR run by
// the parties of a 2-way and a 3-way partition, each over its
// owned-rows graph (weighed under the full graph's degrees, as a shard
// does once the parties have gathered them). Offsets and neighbors must
// be equal, weights and thresholds bit-equal, every freeze's edge and
// retained counts — each party's included — the whole graph's, and the
// canonical walk of the rows must be PruneCSR's pair list. The
// thresholds come out of the one reduction the pruning pass runs: on the
// spilled graph the frames read say so — a freeze reads each page of
// each stream once per pass it makes, and makes no pass PruneCSR does
// not.
func TestFrozenRowsMatchMaskedGraph(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(2121)
	shapes := []struct {
		name string
		c    *blocking.Collection
	}{
		// Two pruning chunks, so per-chunk buffers are stitched and rows
		// receive entries from edges collected in different chunks.
		{"random", blocking.RandomCollection(rng, model.Dirty, 2048+300, 1200)},
		{"paper example", paperBlocks()},
		{"clean-clean", blocking.RandomCollection(rng, model.CleanClean, 300, 200)},
	}
	for _, shape := range shapes {
		c := shape.c
		resident := graph.BuildCSR(c)
		degrees := resident.Degrees()
		spilled, err := graph.BuildCSRSpillCtx(ctx, c, graph.SpillOptions{Dir: t.TempDir(), MemoryBudget: 1, PageEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		if !spilled.Spilled() {
			t.Fatalf("%s: a one-byte budget did not spill", shape.name)
		}
		// pages counts the graph's pages: one frame each for a sweep of
		// the adjacency alone.
		loads := spilled.PageLoads()
		if err := spilled.CanonicalCtx(ctx, func(int32, int32, int64) {}); err != nil {
			t.Fatal(err)
		}
		pages := spilled.PageLoads() - loads

		type partition struct {
			n     int
			owned []*graph.CSR
		}
		var partitions []partition
		for _, n := range []int{2, 3} {
			pt := partition{n: n, owned: make([]*graph.CSR, n)}
			for k := range pt.owned {
				pt.owned[k], err = graph.BuildOwnedCSR(ctx, c, func(u int32) bool { return int(u)%n == k }, 1)
				if err != nil {
					t.Fatal(err)
				}
			}
			partitions = append(partitions, pt)
		}

		for _, kind := range []weights.Kind{weights.CBS, weights.ECBS, weights.ARCS, weights.JS, weights.EJS, weights.ChiSquared} {
			for _, entropy := range []bool{false, true} {
				s := weights.Scheme{Kind: kind, Entropy: entropy}
				s.ApplyCSR(resident)
				s.ApplyCSR(spilled)
				for _, pt := range partitions {
					for _, g := range pt.owned {
						if err := s.ApplyOwnedCSR(ctx, g, degrees, resident.NumEdges(), 1); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, p := range allPrunings {
					cfg := Config{Scheme: s, Pruning: p, C: 2, D: 2, Workers: 1}
					want, pairs := maskedRows(t, resident, cfg)
					all := func(int32) bool { return true }
					for _, workers := range []int{1, 2, 4} {
						cfg.Workers = workers
						label := fmt.Sprintf("%s %v+%s workers=%d", shape.name, s, p, workers)

						got, err := FreezeCSR(ctx, resident, cfg, prune.Alone)
						if err != nil {
							t.Fatal(err)
						}
						sameRows(t, label+" resident", want, got, all, true)
						samePairs(t, label+" canonical walk", pairs, canonicalWalk(got))

						before := spilled.PageLoads()
						got, err = FreezeCSR(ctx, spilled, cfg, prune.Alone)
						if err != nil {
							t.Fatal(err)
						}
						sameRows(t, label+" spilled", want, got, all, true)
						if workers == 1 && p == BlastWNP {
							// One reduction of the thresholds and one retention
							// pass, two streams each; the mask's mirror walk and
							// a second reduction would be three frames a page more.
							if read := spilled.PageLoads() - before; read != 4*pages {
								t.Fatalf("%s: the freeze read %d frames over %d pages, want %d", label, read, pages, 4*pages)
							}
						}

						for _, pt := range partitions {
							for k, got := range freezeParties(t, pt.owned, cfg) {
								owns := func(u int32) bool { return int(u)%pt.n == k }
								sameRows(t, fmt.Sprintf("%s owned %d/%d", label, k, pt.n), want, got, owns, true)
							}
						}
					}
				}
			}
		}
		if err := spilled.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// countedParties is one party that counts the rounds it takes.
type countedParties struct{ rounds *int }

func (p countedParties) Gather(v any) ([]any, error) { *p.rounds++; return prune.Alone.Gather(v) }
func (p countedParties) Owner(int32) int             { return 0 }

// TestFreezeRounds: the build and freeze a shard's export runs take the
// degrees round, the decision's own rounds and one round for both
// counts — nothing more. Every party takes the same rounds, so one
// party counts them.
func TestFreezeRounds(t *testing.T) {
	ctx := context.Background()
	c := blocking.RandomCollection(stats.NewRNG(9), model.Dirty, 400, 300)
	for _, p := range allPrunings {
		cfg := Config{Scheme: weights.Blast(), Pruning: p, C: 2, D: 2, Workers: 2}
		var decide, freeze int
		g, _, err := BuildWeighted(ctx, c, cfg, countedParties{&freeze}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decide(ctx, g, cfg, countedParties{&decide}); err != nil {
			t.Fatal(err)
		}
		if _, err := FreezeCSR(ctx, g, cfg, countedParties{&freeze}); err != nil {
			t.Fatal(err)
		}
		if freeze != decide+2 {
			t.Fatalf("%s: build and freeze took %d rounds, want the decision's %d + 2", p, freeze, decide)
		}
	}
}

// TestSpilledBuildRefusesOwnedRows: a spilled build holds every row, so
// it refuses an owned-row predicate before it writes a segment.
func TestSpilledBuildRefusesOwnedRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Spill = &graph.SpillOptions{Dir: t.TempDir(), MemoryBudget: 1}
	even := func(u int32) bool { return u%2 == 0 }
	if g, _, err := BuildWeighted(context.Background(), paperBlocks(), cfg, prune.Alone, even); err == nil || g != nil {
		t.Fatalf("spilled owned-rows build = (%v, %v), want an error and no graph", g, err)
	}
	if entries, err := os.ReadDir(cfg.Spill.Dir); err != nil || len(entries) > 0 {
		t.Fatalf("spill dir after the refusal: %v, %v", entries, err)
	}
}

// cancelAfter reports context.Canceled from its after-th poll onwards.
type cancelAfter struct {
	context.Context
	after, polls int
}

func (c *cancelAfter) Err() error {
	if c.polls++; c.polls >= c.after {
		return context.Canceled
	}
	return nil
}

// TestFreezeFailsClosed: a freeze cancelled at any of its polls — in a
// reduce pass, in the retention loop or in the scatter into rows — and
// a collector cancelled in its pass return context.Canceled and no rows;
// a page that fails its checksum under the freeze returns the named
// segment error and no rows.
func TestFreezeFailsClosed(t *testing.T) {
	bg := context.Background()
	c := blocking.RandomCollection(stats.NewRNG(5), model.Dirty, 2048+300, 1200)
	g := graph.BuildCSR(c)
	weights.Blast().ApplyCSR(g)
	keepAll := func(int32, int32, float64) bool { return true }
	for _, p := range allPrunings {
		// WNP1 retains most of the graph, so its scatter polls too.
		cfg := Config{Scheme: weights.Blast(), Pruning: p, C: 2, D: 2, Workers: 1}
		counter := &cancelAfter{Context: bg, after: math.MaxInt}
		if _, err := FreezeCSR(counter, g, cfg, prune.Alone); err != nil {
			t.Fatal(err)
		}
		if counter.polls < 3 {
			t.Fatalf("%s: a freeze of %d edges polled %d times", p, g.NumEdges(), counter.polls)
		}
		for after := 1; after <= counter.polls; after++ {
			rows, err := FreezeCSR(&cancelAfter{Context: bg, after: after}, g, cfg, prune.Alone)
			if err != context.Canceled || rows != nil {
				t.Fatalf("%s cancelled at poll %d of %d: (%v, %v), want no rows and context.Canceled", p, after, counter.polls, rows, err)
			}
		}
	}
	counter := &cancelAfter{Context: bg, after: math.MaxInt}
	if _, err := prune.CollectOwned(counter, g, 1, keepAll); err != nil {
		t.Fatal(err)
	}
	for after := 1; after <= counter.polls; after++ {
		rows, err := prune.CollectOwned(&cancelAfter{Context: bg, after: after}, g, 1, keepAll)
		if err != context.Canceled || rows != nil {
			t.Fatalf("CollectOwned cancelled at poll %d of %d: (%v, %v), want no rows and context.Canceled", after, counter.polls, rows, err)
		}
	}

	for _, pattern := range []string{"neighbors.seg", "weights.*.seg"} {
		for _, p := range allPrunings {
			spilled, _, dir := spilledForFaults(t)
			if err := weights.Blast().ApplyCSRCtx(bg, spilled, 2); err != nil {
				t.Fatal(err)
			}
			flipSegmentByte(t, dir, pattern)
			rows, err := FreezeCSR(bg, spilled, Config{Scheme: weights.Blast(), Pruning: p, C: 2, D: 2, Workers: 2}, prune.Alone)
			if !errors.Is(err, store.ErrCorruptSegment) || rows != nil {
				t.Fatalf("%s/%s: FreezeCSR = (%v, %v), want no rows and ErrCorruptSegment", pattern, p, rows, err)
			}
		}
	}
}

// canonicalMirror visits each edge once from its canonical (u < v) entry
// p, with mp the mirror entry in v's run pointing back at u: the sub-v
// neighbors of v lead its ascending run in the order their canonical
// entries are visited, so a per-node cursor lands on each mirror.
func canonicalMirror(g *graph.CSR, fn func(u, v int32, p, mp int64)) error {
	cursors := make([]int64, g.NumProfiles)
	return g.CanonicalCtx(context.Background(), func(u, v int32, p int64) {
		fn(u, v, p, g.Offsets[v]+cursors[v])
		cursors[v]++
	})
}
