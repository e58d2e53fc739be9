// Streaming (node-centric) implementations of the pruning schemes over
// the CSR blocking graph, one method of Sink each: they consume
// graph.CSR — no edge list exists — and emit the retained pairs
// directly into the sink, in canonical (u, v) order. For every scheme
// the retained pairs are identical to those of its sort-based
// counterpart in the test-only reference (internal/edgelist).
//
// Every streaming scheme runs its passes — per-node thresholds, top-k
// selection cuts, histogram counting, retention emission — over the
// fixed node chunks of parallel.go on `workers` goroutines (0 selects
// GOMAXPROCS), and the output is byte-identical for every worker count:
// chunk boundaries are a pure function of the node count, per-chunk
// float partials are combined in chunk order, and per-chunk output
// buffers are stitched in canonical order. Even the global schemes
// WEP/CEP now run in O(adjacency-run) scratch: WEP's mean is a chunked
// sum and CEP's cut comes from the bounded histogram selection of
// select.go instead of a flat O(|E|) weight sort.
//
// All three node-centric schemes share one shape: a reduce pass turns
// every adjacency run into a few per-node scalars — WNP's mean, BLAST's
// M_i/c, CNP's selection cut (cut, tie) — and the retention pass tests
// each canonical edge against the resident per-node vectors of its two
// endpoints. No pass holds per-entry state or looks up an edge's mirror
// entry, so runs are only ever read sequentially — the access shape a
// spilled CSR serves with O(1) page loads per page.
//
// Every streaming scheme takes a context and supports cooperative
// cancellation: each pass polls ctx at edge-segment granularity — even
// inside a single hub node's adjacency run — and returns ctx.Err() as
// soon as cancellation is observed, discarding partial output.
package prune

import (
	"context"
	"math"

	"blast/internal/graph"
)

// WEP is WEP over the CSR graph: discard every edge whose weight is
// below the mean edge weight. The mean's numerator is the chunked
// canonical weight sum (combined in chunk order; see chunkPartialSums).
func (s *Sink) WEP(ctx context.Context, g *graph.CSR, workers int) error {
	if g.NumEdges() == 0 {
		return ctx.Err()
	}
	sums, counts, err := chunkPartialSums(ctx, g, workers)
	if err != nil {
		return err
	}
	theta := combinePartials(sums, counts) / float64(g.NumEdges())
	return s.emit(ctx, g, workers, func(_, _ int32, wt float64) bool {
		return wt >= theta
	})
}

// CEP is CEP over the CSR graph: retain the globally top-k edges by
// weight (k <= 0 uses the block-membership budget), breaking ties at
// the cut in favor of canonically smaller pairs — the tie rule of a
// stable descending sort of the canonical edges. The cut is located by
// the bounded histogram selection of select.go; no O(|E|) weight scratch
// is ever allocated.
func (s *Sink) CEP(ctx context.Context, g *graph.CSR, k, workers int) error {
	ne := g.NumEdges()
	if ne == 0 {
		return ctx.Err()
	}
	if k <= 0 {
		k = CEPBudget(g.BlockCounts)
	}
	if k > ne {
		k = ne
	}
	if k <= 0 {
		return ctx.Err()
	}
	cut, greater, ties, err := selectCut(ctx, g, workers, k)
	if err != nil {
		return err
	}
	// How many budget slots remain for edges that tie with the cut;
	// edges strictly above it are always in. Ties consume their slots in
	// canonical order (and even when zero-filtered below). When the
	// budget covers every tie — the common case of distinct weights,
	// where the single tie IS the k-th edge — or covers none, no
	// per-edge tie ordinal is needed and one emission pass suffices.
	rem := int64(k - greater)
	if rem >= int64(ties) {
		return s.emit(ctx, g, workers, func(_, _ int32, wt float64) bool {
			return wt >= cut
		})
	}
	if rem <= 0 {
		return s.emit(ctx, g, workers, func(_, _ int32, wt float64) bool {
			return wt > cut
		})
	}
	// Partial tie budget: count ties per chunk, prefix-sum the counts in
	// chunk order to give every chunk its starting tie ordinal, then
	// emit.
	nch := numChunks(g.NumProfiles)
	tiesPerChunk := make([]int64, nch)
	err = runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		n := int64(0)
		err := forChunkCanonical(g, w, chunk, func(_, _ int32, wt float64) {
			if wt == cut {
				n++
			}
		})
		tiesPerChunk[chunk] = n
		return err
	})
	if err != nil {
		return err
	}
	tieBase := make([]int64, nch)
	base := int64(0)
	for i, n := range tiesPerChunk {
		tieBase[i] = base
		base += n
	}
	s.chunks = make([]kept, nch)
	weights := s.Weights
	return runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		tie := tieBase[chunk]
		var out kept
		err := forChunkCanonical(g, w, chunk, func(u, v int32, wt float64) {
			take := wt > cut
			if !take && wt == cut {
				take = tie < rem
				tie++
			}
			if take && wt > 0 {
				out.add(u, v, wt, weights)
			}
		})
		s.chunks[chunk] = out
		return err
	})
}

// runReducer reduces one adjacency run to a per-node threshold, polling
// the worker's cancellation budget between edge segments. Implementations
// must be bit-identical to their whole-run counterparts (MeanThresholdOf,
// BlastThresholdOf): segmentation pauses the loop, it never reorders the
// arithmetic.
type runReducer func(w *pruneWorker, ws []float64) (float64, error)

// meanReducer is MeanThresholdOf with in-run cancellation polls.
func meanReducer(w *pruneWorker, ws []float64) (float64, error) {
	n := len(ws)
	s := 0.0
	for len(ws) > 0 {
		seg := len(ws)
		if seg > streamCancelCheckEdges {
			seg = streamCancelCheckEdges
		}
		for _, x := range ws[:seg] {
			s += x
		}
		ws = ws[seg:]
		if err := w.tick(seg); err != nil {
			return 0, err
		}
	}
	return s / float64(n), nil
}

// blastReducer is BlastThresholdOf with in-run cancellation polls.
func blastReducer(c float64) runReducer {
	if c <= 0 {
		c = 2
	}
	return func(w *pruneWorker, ws []float64) (float64, error) {
		m := ws[0]
		for len(ws) > 0 {
			seg := len(ws)
			if seg > streamCancelCheckEdges {
				seg = streamCancelCheckEdges
			}
			for _, x := range ws[:seg] {
				if x > m {
					m = x
				}
			}
			ws = ws[seg:]
			if err := w.tick(seg); err != nil {
				return 0, err
			}
		}
		return m / c, nil
	}
}

// forEachRun invokes fn for every non-empty adjacency run, chunk by
// chunk on `workers` goroutines. Runs are read in ascending node order
// inside a chunk — the strictly sequential access the worker's cursor
// serves with one page load per page over a spilled CSR — and fn polls
// the worker's cancellation budget itself, so it may write per-node
// slots without racing (chunks own disjoint node ranges).
func forEachRun(ctx context.Context, g *graph.CSR, workers int, fn func(w *pruneWorker, n int, nbr []int32, ws []float64) error) error {
	return runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		lo, hi := chunkBounds(chunk, g.NumProfiles)
		for n := lo; n < hi; n++ {
			if g.Offsets[n] == g.Offsets[n+1] {
				continue
			}
			nbr, ws := w.runs.Run(n)
			if err := fn(w, n, nbr, ws); err != nil {
				return err
			}
		}
		return nil
	})
}

// nodeThresholdsCSR computes a per-node threshold by reducing each
// node's adjacent weights; nodes without edges get 0. Each run is
// reduced in adjacency (ascending neighbor) order.
// The values are per-node, so the worker count cannot change a single
// bit.
func nodeThresholdsCSR(ctx context.Context, g *graph.CSR, workers int, reduce runReducer) ([]float64, error) {
	th := make([]float64, g.NumProfiles)
	err := forEachRun(ctx, g, workers, func(w *pruneWorker, n int, _ []int32, ws []float64) (err error) {
		th[n], err = reduce(w, ws)
		return err
	})
	if err != nil {
		return nil, err
	}
	return th, nil
}

// MeanThresholdOf is WNP's per-node reducer over one adjacency run: the
// mean adjacent weight, summed in run order so the value is bit-identical
// whether computed by a full pass (MeanThresholds) or by an incremental
// re-reduction of a single spliced run. Empty runs yield 0.
func MeanThresholdOf(ws []float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	s := 0.0
	for _, w := range ws {
		s += w
	}
	return s / float64(len(ws))
}

// BlastThresholdOf is BLAST's per-node reducer over one adjacency run:
// theta_i = M_i/c (c <= 0 defaults to 2). Empty runs yield 0.
func BlastThresholdOf(ws []float64, c float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	if c <= 0 {
		c = 2
	}
	m := ws[0]
	for _, w := range ws[1:] {
		if w > m {
			m = w
		}
	}
	return m / c
}

// MeanThresholds returns WNP's per-node thresholds over the CSR graph:
// the mean adjacent weight of every node (0 for edgeless nodes). It is
// the exact reducer Sink.WNP prunes with, exported so index consumers
// expose the same values the retention decision used. workers selects
// the goroutine count (0 = GOMAXPROCS); the values are identical either
// way.
func MeanThresholds(ctx context.Context, g *graph.CSR, workers int) ([]float64, error) {
	return nodeThresholdsCSR(ctx, g, workers, meanReducer)
}

// BlastThresholds returns BLAST's per-node thresholds theta_i = M_i/c
// over the CSR graph (0 for edgeless nodes; c <= 0 defaults to 2). It is
// the exact reducer Sink.BlastWNP prunes with, exported so index
// consumers expose the same values the retention decision used. workers
// selects the goroutine count (0 = GOMAXPROCS); the values are identical
// either way.
func BlastThresholds(ctx context.Context, g *graph.CSR, c float64, workers int) ([]float64, error) {
	return nodeThresholdsCSR(ctx, g, workers, blastReducer(c))
}

// WNP is WNP over the CSR graph: per-node mean-weight thresholds, every
// positive-weight canonical edge tested against its endpoints' two
// according to mode.
func (s *Sink) WNP(ctx context.Context, g *graph.CSR, mode Mode, workers int) error {
	th, err := MeanThresholds(ctx, g, workers)
	if err != nil {
		return err
	}
	s.Theta = th
	return s.emit(ctx, g, workers, func(u, v int32, wt float64) bool {
		overU := wt >= th[u]
		overV := wt >= th[v]
		if mode == Redefined {
			return overU || overV
		}
		return overU && overV
	})
}

// BlastWNP is BLAST's pruning (Section 3.3.2) over the CSR graph:
// theta_i = M_i / c per node, retain iff w >= (theta_u + theta_v) / d.
func (s *Sink) BlastWNP(ctx context.Context, g *graph.CSR, c, d float64, workers int) error {
	if d <= 0 {
		d = 2
	}
	th, err := BlastThresholds(ctx, g, c, workers)
	if err != nil {
		return err
	}
	s.Theta = th
	return s.emit(ctx, g, workers, func(u, v int32, wt float64) bool {
		return wt >= (th[u]+th[v])/d
	})
}

// topEntry is one slot of the CNP selection heap: an entry's weight and
// its neighbor id (= its rank in the neighbor-sorted run).
type topEntry struct {
	w float64
	x int32
}

// worse orders entries by CNP's preference, worst first: lower weight,
// and among equal weights the later adjacency position — the entry a
// stable descending sort would place last.
func (a topEntry) worse(b topEntry) bool {
	return a.w < b.w || (a.w == b.w && a.x > b.x)
}

// topKCut reduces one adjacency run to CNP's selection cut (cut, tie):
// node n marks its entry (n, x, w) iff w > cut || (w == cut && x <= tie)
// (InTopK), which is exactly the first k entries of the run stably
// sorted by descending weight. One pass keeps the k best entries seen
// so far in a min-heap whose root is the worst of them; a later entry
// displaces the root only with a strictly larger weight (on a tie it
// sits later in the run, so it loses), and the final root IS the k-th
// entry: its weight is the cut, its neighbor the last tie that still
// fits the budget. O(degree) compares plus O(log k) per displacement,
// O(k) scratch, no sort. Runs of at most k entries mark everything:
// (-Inf, MaxInt32). Like the threshold reducers it polls the worker's
// cancellation budget between edge segments.
func (w *pruneWorker) topKCut(nbr []int32, ws []float64, k int) (cut float64, tie int32, err error) {
	if len(ws) <= k {
		return math.Inf(-1), math.MaxInt32, w.tick(len(ws))
	}
	h := w.top[:0]
	for i := 0; i < len(ws); {
		seg := len(ws) - i
		if seg > streamCancelCheckEdges {
			seg = streamCancelCheckEdges
		}
		for stop := i + seg; i < stop; i++ {
			e := topEntry{ws[i], nbr[i]}
			if len(h) < k {
				// Sift the new leaf up.
				h = append(h, e)
				for c := len(h) - 1; c > 0; {
					p := (c - 1) / 2
					if !h[c].worse(h[p]) {
						break
					}
					h[c], h[p] = h[p], h[c]
					c = p
				}
			} else if e.w > h[0].w {
				// Replace the root and sift it down.
				p := 0
				for {
					c := 2*p + 1
					if c >= k {
						break
					}
					if c+1 < k && h[c+1].worse(h[c]) {
						c++
					}
					if !h[c].worse(e) {
						break
					}
					h[p] = h[c]
					p = c
				}
				h[p] = e
			}
		}
		if err := w.tick(seg); err != nil {
			return 0, 0, err
		}
	}
	w.top = h
	return h[0].w, h[0].x, nil
}

// InTopK reports whether a node whose selection cut is (cut, tie) marks
// its adjacent entry with neighbor x and weight w.
func InTopK(w float64, x int32, cut float64, tie int32) bool {
	return w > cut || (w == cut && x <= tie)
}

// TopKCuts returns CNP's per-node selection cuts over the CSR graph for
// a positive budget k (see topKCut); nodes without edges keep the zero
// cut, which nothing ever consults. The two vectors are all a retention
// pass needs to decide any edge from either endpoint, so partitioned
// shards exchange their owned rows of them exactly like the WNP
// thresholds. The values are per-node: identical for every worker count.
func TopKCuts(ctx context.Context, g *graph.CSR, k, workers int) (cut []float64, tie []int32, err error) {
	cut = make([]float64, g.NumProfiles)
	tie = make([]int32, g.NumProfiles)
	err = forEachRun(ctx, g, workers, func(w *pruneWorker, n int, nbr []int32, ws []float64) (err error) {
		cut[n], tie[n], err = w.topKCut(nbr, ws, k)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return cut, tie, nil
}

// CNP is CNP over the CSR graph: each node marks its top-k adjacent
// edges by weight (ties broken by adjacency order, as a stable sort
// would), and an edge is retained if the marks of its endpoints satisfy
// the mode. The marks are never materialized: one pass reduces every
// run to its selection cut, and retention tests each canonical edge
// against both endpoints' cuts — the same shape as WNP, with strictly
// sequential run access.
func (s *Sink) CNP(ctx context.Context, g *graph.CSR, k int, mode Mode, workers int) error {
	if g.NumEdges() == 0 {
		return ctx.Err()
	}
	if k <= 0 {
		k = CNPBudget(g.BlockCounts)
		if k == 0 {
			return ctx.Err()
		}
	}
	cut, tie, err := TopKCuts(ctx, g, k, workers)
	if err != nil {
		return err
	}
	return s.emit(ctx, g, workers, func(u, v int32, wt float64) bool {
		if mode == Reciprocal {
			return InTopK(wt, v, cut[u], tie[u]) && InTopK(wt, u, cut[v], tie[v])
		}
		return InTopK(wt, v, cut[u], tie[u]) || InTopK(wt, u, cut[v], tie[v])
	})
}
