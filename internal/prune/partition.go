// Distributed pruning primitives for partitioned sharding. A
// partitioned shard holds an owned-rows CSR (graph.BuildOwnedCSR):
// full-length Offsets, adjacency runs only for the rows it owns. The
// global pruning decisions — WEP's mean, CEP's cut, the node-centric
// thresholds and top-k cuts of the rows a canonical edge touches — are
// resolved by exchanging the compact per-row aggregates below in
// deterministic shard order and refolding them with the exact reduction
// shapes of the whole-graph schemes, so the union of every shard's
// retained rows is byte-identical to the single-graph streaming
// scheme:
//
//   - WEP:  per-row weight sums + counts (RowWeightSums), refolded row-
//     within-chunk, chunk order (FoldRowSums) → the identical theta.
//   - CEP:  per-shard counting histograms (CountCutHist, select.go)
//     merged commutatively, one CutScan step per round; partial tie
//     budgets settle via per-row tie counts (RowTieCounts) prefix-
//     summed into global tie ordinals, and the shards exchange the
//     resulting taken-tie pair set (CEPTakenTies) so every owner can
//     mark ties on both entry orientations.
//   - WNP / BlastWNP: per-node thresholds are row-local (an owned row
//     carries its node's complete adjacency), so shards exchange their
//     owned rows of the threshold vector (MeanThresholds,
//     BlastThresholds) and mark against the merged one.
//   - CNP:  per-node selection cuts are row-local for the same reason,
//     so shards exchange their owned rows of the (cut, tie) vectors
//     (TopKCuts) and mark against the merged ones with InTopK — the
//     very test Sink.CNP retains by.
//
// The retained rows are produced by CollectOwned (rows.go): every entry
// of an owned row — both orientations, so a row's served candidates are
// complete — is decided by a keep predicate closed over the globally
// merged aggregates. Because each row's run is its node's full
// adjacency, each owner can decide every entry it holds locally once
// the aggregates are merged; no per-edge exchange is ever needed.
package prune

import (
	"context"

	"blast/internal/graph"
	"blast/internal/model"
)

// RowWeightSums computes, per row, the left-to-right weight sum and
// count of the canonical entries whose smaller endpoint is the row.
// Over an owned-rows CSR only owned rows are populated; the per-shard
// vectors of a partitioned server are disjoint, so scattering them by
// ownership (in any shard order) yields the whole graph's row vectors.
func RowWeightSums(ctx context.Context, g *graph.CSR, workers int) (sums []float64, counts []int64, err error) {
	sums = make([]float64, g.NumProfiles)
	counts = make([]int64, g.NumProfiles)
	err = runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		// Chunks own disjoint row ranges, so these writes never race.
		return forChunkCanonical(g, w, chunk, func(u, _ int32, wt float64) {
			sums[u] += wt
			counts[u]++
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return sums, counts, nil
}

// FoldRowSums folds whole-graph per-row weight sums with the fixed
// row-within-chunk reduction of chunkPartialSums + combinePartials:
// rows with at least one canonical entry fold in ascending row order
// into per-chunk partials, chunk partials combine in chunk order. The
// total is bit-identical to the streaming WEP's numerator, and edges is
// the graph's canonical edge count (= NumEdges of the whole graph).
func FoldRowSums(sums []float64, counts []int64) (total float64, edges int64) {
	chunk := -1
	partial := 0.0
	for u := range sums {
		if counts[u] == 0 {
			// Rows without canonical entries never contribute a fold —
			// skipping them (rather than adding their 0) is what keeps
			// the reconstruction exact even for signed zeros.
			continue
		}
		edges += counts[u]
		if c := u / ChunkNodes; c != chunk {
			if chunk >= 0 {
				total += partial
			}
			partial, chunk = 0, c
		}
		partial += sums[u]
	}
	if chunk >= 0 {
		total += partial
	}
	return total, edges
}

// RowTieCounts computes, per row, how many of the row's canonical
// entries carry exactly the cut weight — the per-row decomposition of
// Sink.CEP's per-chunk tie counts. Prefix sums over the merged whole-
// graph vector assign every tie its global canonical ordinal.
func RowTieCounts(ctx context.Context, g *graph.CSR, workers int, cut float64) ([]int64, error) {
	ties := make([]int64, g.NumProfiles)
	err := runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		return forChunkCanonical(g, w, chunk, func(u, _ int32, wt float64) {
			if wt == cut {
				ties[u]++
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return ties, nil
}

// CEPTakenTies collects the canonical pairs of the shard's owned rows
// that tie exactly at the cut AND fall inside the remaining budget rem,
// in global canonical tie order. The order is resolved through tieBase
// — per row, the ordinal of the row's first tie among all the graph's
// ties (the prefix sum of the merged RowTieCounts) — so on the whole
// graph this reproduces Sink.CEP's partial tie pass exactly: a chunk's
// starting ordinal is its first row's. Ties are collected regardless of
// weight sign (ordinals count every tying entry, exactly as the stream
// does; the positive-weight gate lives in the retention pass), and
// the per-shard slices are disjoint and canonically sorted, so merging
// them in any order yields THE global taken-tie set. Callers with
// rem >= ties or rem <= 0 need no tie set at all — the cut alone
// decides (weight >= cut, weight > cut).
func CEPTakenTies(ctx context.Context, g *graph.CSR, workers int, cut float64, rem int64, tieBase []int64) ([]model.IDPair, error) {
	nch := numChunks(g.NumProfiles)
	bufs := make([][]model.IDPair, nch)
	err := runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		tie, row := int64(0), int32(-1)
		var out []model.IDPair
		err := forChunkCanonical(g, w, chunk, func(u, v int32, wt float64) {
			if wt != cut {
				return
			}
			if u != row {
				tie, row = tieBase[u], u
			}
			if tie < rem {
				out = append(out, model.IDPair{U: u, V: v})
			}
			tie++
		})
		bufs[chunk] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	return stitchPairs(bufs), nil
}
