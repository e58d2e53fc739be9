// The parties of a pruning decision. A graph's rows may be held by one
// party — the whole graph, Alone — or split between N: the parties of a
// server's partitioned publication, each holding an owned-rows CSR
// (graph.BuildOwnedCSR: full-length Offsets, adjacency runs only for
// the rows it owns). A decision runs on every party at once over what
// that party holds, and resolves what is global to the graph by rounds
// of Gather, merged so the outcome is byte-identical to the one-party
// decision over the whole graph:
//
//   - per-row vectors are scattered by owner (GatherRows): degrees, WEP's
//     row sums and counts, the WNP/BLAST thresholds, CNP's selection cuts
//     (cut, tie) and CEP's per-row tie counts. An owned row carries its
//     node's complete adjacency, so its owner alone knows its value;
//   - CEP's counting histograms fold in party order (select.go);
//   - int64 counts are summed (GatherSum);
//   - CEP's tie boundary is handed on by the owner of its row.
//
// Every branch a decision takes between rounds tests only gathered
// values, so all parties run the identical round sequence. Once the
// rounds are done each party decides every entry it holds locally: both
// orientations of an edge are decided alike, by whichever party holds
// them.
package prune

import (
	"context"

	"blast/internal/graph"
)

// Parties are the holders of one graph's rows as a pruning decision
// sees them.
type Parties interface {
	// Gather contributes this party's value to its next round, waits
	// for every party's, and returns them all in party order. The
	// values are shared read-only by every party of the round.
	Gather(v any) ([]any, error)
	// Owner returns the party that holds row u.
	Owner(u int32) int
}

// Alone is the one party of a whole graph: every round returns its
// input.
var Alone Parties = alone{}

type alone struct{}

func (alone) Gather(v any) ([]any, error) { return []any{v}, nil }
func (alone) Owner(int32) int             { return 0 }

// GatherRows runs one round over a per-row vector, each party's
// populated at the rows it owns, and returns the vector whose row u is
// the value u's owner contributed — never an element-wise sum, which
// could disturb IEEE signed zeros. One party gets its own vector back;
// several, a fresh one.
func GatherRows[T any](p Parties, rows []T) ([]T, error) {
	vals, err := p.Gather(rows)
	if err != nil {
		return nil, err
	}
	if len(vals) == 1 {
		return rows, nil
	}
	parts := make([][]T, len(vals))
	for i, v := range vals {
		parts[i] = v.([]T)
	}
	out := make([]T, len(rows))
	for u := range out {
		out[u] = parts[p.Owner(int32(u))][u]
	}
	return out, nil
}

// GatherSum runs one round over a few counts and returns each one's
// sum over the parties.
func GatherSum(p Parties, counts ...int64) ([]int64, error) {
	vals, err := p.Gather(counts)
	if err != nil {
		return nil, err
	}
	total := make([]int64, len(counts))
	for _, v := range vals {
		for i, n := range v.([]int64) {
			total[i] += n
		}
	}
	return total, nil
}

// rowWeightSums computes, per row, the left-to-right weight sum and
// count of the canonical entries whose smaller endpoint is the row.
// Over an owned-rows CSR only owned rows are populated.
func rowWeightSums(ctx context.Context, g *graph.CSR, workers int) (sums []float64, counts []int64, err error) {
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

// foldRowSums folds whole-graph per-row weight sums with a fixed
// row-within-chunk reduction: rows with at least one canonical entry
// fold in ascending row order into per-chunk partials, chunk partials
// combine in chunk order. edges is the graph's canonical edge count.
// The edge-list reference adds its sorted edges in the same order.
func foldRowSums(sums []float64, counts []int64) (total float64, edges int64) {
	chunk := -1
	partial := 0.0
	for u := range sums {
		if counts[u] == 0 {
			// Rows without canonical entries never contribute a fold —
			// skipping them (rather than adding their 0) is what keeps
			// the reduction fixed even for signed zeros.
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

// rowTieCounts computes, per row, how many of the row's canonical
// entries carry exactly the cut weight.
func rowTieCounts(ctx context.Context, g *graph.CSR, workers int, cut float64) ([]int64, error) {
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
