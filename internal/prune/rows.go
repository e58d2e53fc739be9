package prune

import (
	"context"

	"blast/internal/graph"
)

// Rows is the frozen outcome of a pruning pass: a CSR over every
// profile holding only the entries pruning kept. Row u lists (v, w) for
// every retained edge {u, v}, ascending by v, so each retained edge sits
// once in each endpoint's row and the entries with v > u, row by row,
// are the retained pairs in canonical order. It is what an index serves
// from; the blocking graph it was cut out of can be dropped.
type Rows struct {
	// Offsets indexes the entry arrays: row u occupies positions
	// [Offsets[u], Offsets[u+1]).
	Offsets   []int64
	Neighbors []int32
	Weights   []float64
	// Theta is the per-node threshold vector retention was decided by
	// (nil for schemes without one).
	Theta []float64
}

// Rows scatters what a pass with Weights set retained into the rows of
// a graph of numProfiles nodes, by counting placement: the canonical
// edges arrive sorted by (u, v), so row x first receives its smaller
// neighbors in ascending order — the edges (u, x) — and then its larger
// ones — the edges (x, v) — and comes out neighbor-sorted without a
// sort. Polls ctx at edge-segment granularity; a cancelled scatter
// returns ctx.Err() and no rows.
func (s *Sink) Rows(ctx context.Context, numProfiles int) (*Rows, error) {
	offsets := make([]int64, numProfiles+1)
	for _, chunk := range s.chunks {
		for _, p := range chunk.pairs {
			offsets[p.U+1]++
			offsets[p.V+1]++
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for u := 0; u < numProfiles; u++ {
		offsets[u+1] += offsets[u]
	}
	r := &Rows{
		Offsets:   offsets,
		Neighbors: make([]int32, offsets[numProfiles]),
		Weights:   make([]float64, offsets[numProfiles]),
		Theta:     s.Theta,
	}
	next := append([]int64(nil), offsets[:numProfiles]...)
	for _, chunk := range s.chunks {
		for pairs, wts := chunk.pairs, chunk.wts; len(pairs) > 0; {
			seg := min(len(pairs), streamCancelCheckEdges)
			for i, p := range pairs[:seg] {
				r.Neighbors[next[p.U]], r.Weights[next[p.U]] = p.V, wts[i]
				next[p.U]++
				r.Neighbors[next[p.V]], r.Weights[next[p.V]] = p.U, wts[i]
				next[p.V]++
			}
			pairs, wts = pairs[seg:], wts[seg:]
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// CollectOwned runs the retention pass over every entry of the graph's
// populated rows and returns the rows of what it kept (Theta nil): each
// positive-weight entry (u, v) — u the row, v the neighbor, in BOTH
// orientations of every edge the row holds, so a row's served
// candidates are complete — is decided by keep. Over an owned-rows CSR
// the populated rows are exactly the owned ones, and since each shard's
// rows are disjoint, summing the shards' entry counts counts every
// retained edge exactly twice (once per endpoint, whoever owns it): the
// global number of retained pairs is the exchanged sum over two. keep
// must be a pure function of its arguments and globally merged state,
// so both owners of an edge decide it identically. Entries are kept in
// the order they are read — row by row, neighbor-ascending — so the
// rows need no placement, only stitching.
func CollectOwned(ctx context.Context, g *graph.CSR, workers int, keep func(u, v int32, w float64) bool) (*Rows, error) {
	nch := numChunks(g.NumProfiles)
	nbrs := make([][]int32, nch)
	wtss := make([][]float64, nch)
	offsets := make([]int64, g.NumProfiles+1)
	// A chunk is one worker's from start to end, so its buffers and its
	// rows' slots of offsets are written without racing.
	err := forEachRun(ctx, g, workers, func(w *pruneWorker, u int, nbr []int32, wts []float64) error {
		c := u / ChunkNodes
		outN, outW := nbrs[c], wtss[c]
		before := len(outN)
		for len(nbr) > 0 {
			seg := min(len(nbr), streamCancelCheckEdges)
			for i, v := range nbr[:seg] {
				if wt := wts[i]; wt > 0 && keep(int32(u), v, wt) {
					outN = append(outN, v)
					outW = append(outW, wt)
				}
			}
			nbr, wts = nbr[seg:], wts[seg:]
			if err := w.tick(seg); err != nil {
				return err
			}
		}
		nbrs[c], wtss[c] = outN, outW
		offsets[u+1] = int64(len(outN) - before)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for u := 0; u < g.NumProfiles; u++ {
		offsets[u+1] += offsets[u]
	}
	r := &Rows{
		Offsets:   offsets,
		Neighbors: make([]int32, 0, offsets[g.NumProfiles]),
		Weights:   make([]float64, 0, offsets[g.NumProfiles]),
	}
	for c := range nbrs {
		r.Neighbors = append(r.Neighbors, nbrs[c]...)
		r.Weights = append(r.Weights, wtss[c]...)
	}
	return r, nil
}
