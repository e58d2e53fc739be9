// Parallel execution substrate of the streaming pruning schemes.
//
// Every pruning decision and collector decomposes into passes over the
// CSR that are node-local (per-node thresholds, per-node top-k cuts,
// per-row sums and tie counts) or that visit canonical edges grouped by
// their smaller endpoint (histograms, the canonical collector). Both
// shapes parallelize over node ranges — but determinism, not speed, is
// the contract here: the retained pairs must be byte-identical to the
// serial pass for every worker count and GOMAXPROCS. Three rules
// enforce it, designed in rather than bolted on (the PR 4 entropy
// ordering bug is the precedent for what happens otherwise):
//
//  1. Chunk boundaries are a pure function of (NumProfiles, ChunkNodes).
//     They never depend on the worker count, the weight distribution or
//     load balancing, so every execution — serial included — reduces
//     over exactly the same partition.
//  2. Partial floating-point sums are produced per row and folded in
//     ascending row, then chunk, order. Workers race only for *which*
//     chunk they compute, never for the order results are folded.
//  3. Integer accumulators (histogram counts, tie counts) commute and
//     may be merged in any worker order; min/max merges likewise.
//
// Output buffers are per-chunk and stitched in chunk order, which is
// canonical (u, v) order because chunks partition the node space in
// ascending ranges.
package prune

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"blast/internal/graph"
)

const (
	// ChunkNodes is the fixed node width of a pruning chunk. It is part
	// of the determinism contract: chunk boundaries derive only from
	// NumProfiles and this constant, so the chunked float reductions are
	// identical for every worker count. Exported because it is also part
	// of WEP's documented summation order, which the edge-list reference
	// reproduces from the outside.
	ChunkNodes = 2048
	// streamCancelCheckEdges is the edge granularity at which every
	// pruning pass polls for cancellation — including *inside* a single
	// adjacency run, so one hub node with a multi-million-edge run
	// cannot delay cancellation arbitrarily.
	streamCancelCheckEdges = 8192
)

// numChunks returns the number of fixed node chunks of a graph.
func numChunks(nodes int) int {
	if nodes <= 0 {
		return 0
	}
	return (nodes + ChunkNodes - 1) / ChunkNodes
}

// chunkBounds returns the half-open node range [lo, hi) of a chunk.
func chunkBounds(chunk, nodes int) (lo, hi int) {
	lo = chunk * ChunkNodes
	hi = lo + ChunkNodes
	if hi > nodes {
		hi = nodes
	}
	return lo, hi
}

// resolvePruneWorkers maps the Workers contract onto a concrete count:
// 0 (or negative) means one worker per CPU.
func resolvePruneWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// pruneWorker is the per-goroutine state of a chunked pruning pass: the
// worker's stable id (for passes accumulating into per-worker state,
// like the CEP selection histograms), the cancellation budget, its
// private cursor over the graph's runs (on a spilled graph: its own
// decoded pages, kept from chunk to chunk), and reusable scratch. It is
// never shared between goroutines.
type pruneWorker struct {
	ctx    context.Context
	id     int
	budget int
	runs   *graph.RunReader
	// top is the reusable size-k selection heap of the CNP cut pass.
	top []topEntry
}

// tick spends n edges of the cancellation budget and polls ctx when the
// budget is exhausted. Passes call it between edge segments, so polling
// never perturbs the arithmetic order of a reduction.
func (w *pruneWorker) tick(n int) error {
	w.budget -= n
	if w.budget <= 0 {
		w.budget = streamCancelCheckEdges
		return w.ctx.Err()
	}
	return nil
}

// pruneWorkerCount resolves how many workers runChunks will actually
// use for a pass over `chunks` chunks.
func pruneWorkerCount(workers, chunks int) int {
	workers = resolvePruneWorkers(workers)
	if workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runChunks executes fn(worker, chunk) for every fixed node chunk of g
// using at most `workers` goroutines (<= 0 selects GOMAXPROCS). Which
// worker computes which chunk is racy by design; callers must write
// results into per-chunk (or per-node or per-worker) slots so the
// output is independent of the assignment. Returns the first error
// observed: cancellation (every worker returns the same ctx.Err()) or,
// over a spilled graph, its sticky read error — a pass refuses a graph
// that already failed (a failed weighting leaves no weights to read)
// and reports a page that failed while it ran, whose runs it saw as
// zeros.
func runChunks(ctx context.Context, g *graph.CSR, workers int, fn func(w *pruneWorker, chunk int) error) error {
	// Poll before any work: graphs smaller than one tick budget would
	// otherwise never observe an already-cancelled context, and every
	// pass must fail fast on one (the contract the serial schemes always
	// honored by polling at loop entry).
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := g.Err(); err != nil {
		return err
	}
	chunks := numChunks(g.NumProfiles)
	if chunks == 0 {
		return nil
	}
	workers = pruneWorkerCount(workers, chunks)
	if workers <= 1 {
		w := &pruneWorker{ctx: ctx, budget: streamCancelCheckEdges, runs: g.Reader()}
		for c := 0; c < chunks; c++ {
			if err := fn(w, c); err != nil {
				return err
			}
		}
		return g.Err()
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &pruneWorker{ctx: ctx, id: i, budget: streamCancelCheckEdges, runs: g.Reader()}
			for !failed.Load() {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				if err := fn(w, c); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return g.Err()
}

// forChunkCanonical invokes fn for every canonical (u < v) entry whose
// smaller endpoint lies in the chunk, in canonical order, polling ctx at
// edge-segment granularity even inside a single long run. Runs are read
// through the worker's run cursor — the one seam both the resident and
// the spilled (paged) backings serve byte-identical data through — and
// each entry's weight rides along so passes never index a flat weight
// array that may not be resident.
func forChunkCanonical(g *graph.CSR, w *pruneWorker, chunk int, fn func(u, v int32, wt float64)) error {
	lo, hi := chunkBounds(chunk, g.NumProfiles)
	for u := lo; u < hi; u++ {
		base, end := g.Offsets[u], g.Offsets[u+1]
		if base == end {
			continue
		}
		nbr, wts := w.runs.Run(u)
		for p := base; p < end; {
			seg := end - p
			if seg > streamCancelCheckEdges {
				seg = streamCancelCheckEdges
			}
			for stop := p + seg; p < stop; p++ {
				if v := nbr[p-base]; int(v) > u {
					fn(int32(u), v, wts[p-base])
				}
			}
			if err := w.tick(int(seg)); err != nil {
				return err
			}
		}
	}
	return nil
}
