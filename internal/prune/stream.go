// The pruning decisions, one function a scheme. A decision reads a
// weighted graph.CSR — a whole graph, or the owned rows of one of the
// parties that hold a graph between them (partition.go) — and returns
// the predicate that decides every entry, with the per-node thresholds
// it decided by. What is global to the graph — WEP's mean, CEP's cut,
// the thresholds or selection cuts of a row another party holds — it
// resolves through rounds of the Parties it is given; with Alone, the
// one party of a whole graph, every round hands back its input. The
// collectors of rows.go run the predicate over the graph. For every
// scheme the retained pairs are identical to those of its sort-based
// counterpart in the test-only reference (internal/edgelist).
//
// Every pass of a decision runs over the fixed node chunks of
// parallel.go on `workers` goroutines (0 selects GOMAXPROCS), and the
// decision is byte-identical for every worker count and every
// partition of the rows: chunk boundaries are a pure function of the
// node count, a per-row value comes from the row's one owner, and float
// sums fold in a fixed row and chunk order. Even the global schemes run
// in O(adjacency-run) scratch plus per-row vectors: WEP's mean is a
// refold of per-row sums and CEP's cut comes from the bounded histogram
// selection of select.go instead of a flat O(|E|) weight sort.
//
// The node-centric schemes share one shape: a reduce pass turns every
// adjacency run into a few per-node scalars — WNP's mean, BLAST's M_i/c,
// CNP's selection cut (cut, tie) — and the predicate tests an entry
// against the vectors of its two endpoints. An owned row is its node's
// whole adjacency, so the scalars are row-local and the parties only
// swap their owned rows of them. No pass holds per-entry state or looks
// up an edge's mirror entry, so runs are only ever read sequentially —
// the access shape a spilled CSR serves with O(1) page loads per page.
//
// Every pass polls ctx at edge-segment granularity — even inside a
// single hub node's adjacency run — and returns ctx.Err() as soon as
// cancellation is observed.
package prune

import (
	"context"
	"math"

	"blast/internal/graph"
)

// Decision is what a pruning scheme decided over a graph. Keep decides
// an entry (u, v, w) — row u, neighbor v, in either orientation, always
// with a positive weight (the collectors retain nothing else) — and is
// a pure function of its arguments and of globally resolved values, so
// the owners of an edge's two endpoints decide it alike. Theta is the
// per-node threshold vector of the schemes that have one (WNP,
// BlastWNP) — the very values Keep tests — and nil for the others.
type Decision struct {
	Keep  func(u, v int32, w float64) bool
	Theta []float64
}

// keepNone is the decision of a graph without edges.
var keepNone = Decision{Keep: func(int32, int32, float64) bool { return false }}

// WEP discards every edge whose weight is below the mean edge weight.
// The mean's numerator is the canonical weight sum: per-row sums
// gathered by owner and refolded in row-within-chunk, chunk order
// (foldRowSums) — the order the edge-list reference adds its sorted
// edges in.
func WEP(ctx context.Context, g *graph.CSR, workers int, p Parties) (Decision, error) {
	sums, counts, err := rowWeightSums(ctx, g, workers)
	if err == nil {
		sums, err = GatherRows(p, sums)
	}
	if err == nil {
		counts, err = GatherRows(p, counts)
	}
	if err != nil {
		return Decision{}, err
	}
	total, edges := foldRowSums(sums, counts)
	if edges == 0 {
		return keepNone, nil
	}
	theta := total / float64(edges)
	return Decision{Keep: func(_, _ int32, w float64) bool { return w >= theta }}, nil
}

// CEP retains the globally top-k edges by weight (k <= 0 uses the
// block-membership budget), breaking ties at the cut in favor of
// canonically smaller pairs — the tie rule of a stable descending sort
// of the canonical edges. The cut comes from the histogram selection of
// select.go. When the budget splits the edges tying at the cut, the
// ties it takes are the first rem in canonical order, which are exactly
// the ties up to the rem-th one (tieBoundary): one pair comparison
// decides any entry.
func CEP(ctx context.Context, g *graph.CSR, k, workers int, p Parties) (Decision, error) {
	entries, err := GatherSum(p, g.NumEntries())
	if err != nil {
		return Decision{}, err
	}
	if k <= 0 {
		k = CEPBudget(g.BlockCounts)
	}
	if k = min(k, int(entries[0]/2)); k <= 0 {
		return keepNone, nil
	}
	cut, greater, ties, err := cepCut(ctx, g, workers, k, p)
	if err != nil {
		return Decision{}, err
	}
	// Edges strictly above the cut are always in, and at least one tie
	// is: the k-th edge itself. rem budget slots are left for the ties,
	// which take them in canonical order, zero-weight ones included.
	rem := int64(k - greater)
	if rem >= int64(ties) {
		return Decision{Keep: func(_, _ int32, w float64) bool { return w >= cut }}, nil
	}
	bu, bv, err := tieBoundary(ctx, g, workers, cut, rem, p)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Keep: func(u, v int32, w float64) bool {
		if w != cut {
			return w > cut
		}
		lo, hi := min(u, v), max(u, v)
		return lo < bu || (lo == bu && hi <= bv)
	}}, nil
}

// tieBoundary returns the canonical pair (u, v) of the rem-th edge
// tying at the cut, in canonical order (1 <= rem < the number of ties).
// Per-row tie counts, gathered by owner, name the row it sits in; the
// row's owner — the one party whose graph holds the row's run — walks
// the run to it, and one round hands the pair to every party.
func tieBoundary(ctx context.Context, g *graph.CSR, workers int, cut float64, rem int64, p Parties) (u, v int32, err error) {
	ties, err := rowTieCounts(ctx, g, workers, cut)
	if err == nil {
		ties, err = GatherRows(p, ties)
	}
	if err != nil {
		return 0, 0, err
	}
	for ; rem > ties[u]; u++ {
		rem -= ties[u]
	}
	v = -1
	if g.Degree(int(u)) > 0 {
		nbr, ws := g.Reader().Run(int(u))
		for i, x := range nbr {
			if i%streamCancelCheckEdges == 0 {
				if err := ctx.Err(); err != nil {
					return 0, 0, err
				}
			}
			if x > u && ws[i] == cut {
				if rem--; rem == 0 {
					v = x
					break
				}
			}
		}
		if err := g.Err(); err != nil {
			return 0, 0, err
		}
	}
	vs, err := p.Gather(v)
	if err != nil {
		return 0, 0, err
	}
	return u, vs[p.Owner(u)].(int32), nil
}

// runReducer reduces one adjacency run to a per-node threshold, polling
// the worker's cancellation budget between edge segments. Implementations
// must be bit-identical to one loop over the whole run: segmentation
// pauses the loop, it never reorders the arithmetic.
type runReducer func(w *pruneWorker, ws []float64) (float64, error)

// meanReducer is WNP's per-node reducer: the mean adjacent weight,
// summed in run order, with in-run cancellation polls.
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

// blastReducer is BLAST's per-node reducer, theta_i = M_i/c (c <= 0
// defaults to 2), with in-run cancellation polls.
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

// MeanThresholds returns WNP's per-node thresholds over the CSR graph:
// the mean adjacent weight of every node (0 for edgeless nodes; over an
// owned-rows graph, for every node whose row it does not hold). workers
// selects the goroutine count (0 = GOMAXPROCS); the values are identical
// either way.
func MeanThresholds(ctx context.Context, g *graph.CSR, workers int) ([]float64, error) {
	return nodeThresholdsCSR(ctx, g, workers, meanReducer)
}

// BlastThresholds returns BLAST's per-node thresholds theta_i = M_i/c
// over the CSR graph (0 for edgeless nodes; c <= 0 defaults to 2), like
// MeanThresholds.
func BlastThresholds(ctx context.Context, g *graph.CSR, c float64, workers int) ([]float64, error) {
	return nodeThresholdsCSR(ctx, g, workers, blastReducer(c))
}

// WNP keeps an edge by its endpoints' mean adjacent weights (gathered
// by owner), resolved according to mode.
func WNP(ctx context.Context, g *graph.CSR, mode Mode, workers int, p Parties) (Decision, error) {
	th, err := MeanThresholds(ctx, g, workers)
	if err == nil {
		th, err = GatherRows(p, th)
	}
	if err != nil {
		return Decision{}, err
	}
	return Decision{Theta: th, Keep: func(u, v int32, w float64) bool {
		overU := w >= th[u]
		overV := w >= th[v]
		if mode == Redefined {
			return overU || overV
		}
		return overU && overV
	}}, nil
}

// BlastWNP is BLAST's pruning (Section 3.3.2): theta_i = M_i / c per
// node (gathered by owner), retain iff w >= (theta_u + theta_v) / d.
func BlastWNP(ctx context.Context, g *graph.CSR, c, d float64, workers int, p Parties) (Decision, error) {
	if d <= 0 {
		d = 2
	}
	th, err := BlastThresholds(ctx, g, c, workers)
	if err == nil {
		th, err = GatherRows(p, th)
	}
	if err != nil {
		return Decision{}, err
	}
	return Decision{Theta: th, Keep: func(u, v int32, w float64) bool {
		return w >= (th[u]+th[v])/d
	}}, nil
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
// (inTopK), which is exactly the first k entries of the run stably
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

// inTopK reports whether a node whose selection cut is (cut, tie) marks
// its adjacent entry with neighbor x and weight w.
func inTopK(w float64, x int32, cut float64, tie int32) bool {
	return w > cut || (w == cut && x <= tie)
}

// topKCuts returns CNP's per-node selection cuts over the CSR graph for
// a positive budget k (see topKCut); nodes without edges keep the zero
// cut, which nothing ever consults. The two vectors are all CNP's
// predicate needs to decide any edge from either endpoint. The values
// are per-node: identical for every worker count.
func topKCuts(ctx context.Context, g *graph.CSR, k, workers int) (cut []float64, tie []int32, err error) {
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

// CNP keeps an edge by its endpoints' top-k marks (ties broken by
// adjacency order, as a stable sort would) according to mode. The marks
// are never materialized: one pass reduces every run to its selection
// cut, the parties swap their owned rows of the cuts, and the predicate
// tests an entry against both endpoints' cuts — the same shape as WNP.
func CNP(ctx context.Context, g *graph.CSR, k int, mode Mode, workers int, p Parties) (Decision, error) {
	if k <= 0 {
		if k = CNPBudget(g.BlockCounts); k == 0 {
			return keepNone, nil
		}
	}
	cut, tie, err := topKCuts(ctx, g, k, workers)
	if err == nil {
		cut, err = GatherRows(p, cut)
	}
	if err == nil {
		tie, err = GatherRows(p, tie)
	}
	if err != nil {
		return Decision{}, err
	}
	if mode == Reciprocal {
		return Decision{Keep: func(u, v int32, w float64) bool {
			return inTopK(w, v, cut[u], tie[u]) && inTopK(w, u, cut[v], tie[v])
		}}, nil
	}
	return Decision{Keep: func(u, v int32, w float64) bool {
		return inTopK(w, v, cut[u], tie[u]) || inTopK(w, u, cut[v], tie[v])
	}}, nil
}
