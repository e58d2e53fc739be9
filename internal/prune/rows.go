package prune

import (
	"context"

	"blast/internal/graph"
	"blast/internal/model"
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
}

// CollectPairs runs the retention pass over the graph's canonical
// entries and returns the pairs keep retains, in canonical (u, v) order
// (nil when it retains none): the pair list of a meta-blocking run,
// without the rows' second orientation and weights. Each chunk fills a
// buffer of its own, stitched in chunk order.
func CollectPairs(ctx context.Context, g *graph.CSR, workers int, keep func(u, v int32, w float64) bool) ([]model.IDPair, error) {
	bufs := make([][]model.IDPair, numChunks(g.NumProfiles))
	err := runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		var out []model.IDPair
		err := forChunkCanonical(g, w, chunk, func(u, v int32, wt float64) {
			if wt > 0 && keep(u, v, wt) {
				out = append(out, model.IDPair{U: u, V: v})
			}
		})
		bufs[chunk] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil, nil
	}
	pairs := make([]model.IDPair, 0, total)
	for _, b := range bufs {
		pairs = append(pairs, b...)
	}
	return pairs, nil
}

// CollectOwned runs the retention pass over every entry of the graph's
// populated rows and returns the rows of what it kept: each
// positive-weight entry (u, v) — u the row, v the neighbor, in BOTH
// orientations of every edge the row holds, so a row's served
// candidates are complete — is decided by keep, a Decision's
// predicate. Over an owned-rows CSR the populated rows are exactly the
// owned ones, and since the parties' rows are disjoint, summing their
// entry counts counts every retained edge exactly twice (once per
// endpoint, whoever owns it): the global number of retained pairs is
// that sum over two. Entries are kept in the order
// they are read — row by row, neighbor-ascending — so the rows need no
// placement, only stitching.
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
