// Histogram-cut selection for CEP: find the k-th largest edge weight
// (the cut) and the count of edges strictly above it without ever
// materializing the O(|E|) weight array a sort-based CEP would hold.
//
// Weights are mapped onto order-preserving 64-bit keys and the cut key
// is located by MSB-first 16-bit histogram passes: a pass counts the
// candidate keys into 2^16 fixed-boundary buckets (tracking per-bucket
// key min/max), the bucket containing the k-th largest key becomes the
// new candidate prefix, and the refinement stops as soon as the cut
// bucket holds a single distinct key — immediately, in the common case
// of massive ties at the cut — or after at most four passes, when the
// full 64 bits are resolved. Scratch is O(2^16) per worker regardless
// of |E|, pooled across passes and decisions.
//
// Counting passes parallelize over the fixed node chunks; histogram
// counts and key min/max merge commutatively — across workers, and
// across the parties of a decision, whose graphs partition the
// canonical entries — so the selected cut is byte-identical for every
// worker count and every partition (determinism rule 3 of parallel.go).
package prune

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"blast/internal/graph"
)

const (
	selBucketBits = 16
	selBuckets    = 1 << selBucketBits
	selBucketMask = selBuckets - 1
)

// weightKey maps a float64 weight onto a uint64 whose unsigned order
// matches the float order. Both zeros collapse onto +0 so key equality
// matches float equality (the tie rule compares floats); NaNs map to
// the smallest key, mirroring their position under sort.Float64s.
func weightKey(w float64) uint64 {
	if math.IsNaN(w) {
		return 0
	}
	if w == 0 {
		w = 0 // collapse -0 onto +0
	}
	b := math.Float64bits(w)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyWeight inverts weightKey for keys produced from non-NaN weights.
func keyWeight(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// selHist is the histogram of one counting pass: per bucket, the count
// of candidate keys and their key min/max, and a bitmap of the buckets
// counted into. Histograms come from a pool and go back cleared at the
// buckets they used, so a pass over a small graph costs what it counts,
// not 2^16 buckets.
type selHist struct {
	counts [selBuckets]int64
	kmin   [selBuckets]uint64
	kmax   [selBuckets]uint64
	used   [selBuckets / 64]uint64
}

var selHists = sync.Pool{New: func() any {
	h := &selHist{}
	for i := range h.kmin {
		h.kmin[i] = ^uint64(0)
	}
	return h
}}

// newSelHist returns an empty histogram (counts zero, minima saturated
// high, maxima low), ready to count or merge into.
func newSelHist() *selHist { return selHists.Get().(*selHist) }

// add counts n keys spanning [lo, hi] into bucket b.
func (h *selHist) add(b uint64, n int64, lo, hi uint64) {
	h.counts[b] += n
	h.kmin[b] = min(h.kmin[b], lo)
	h.kmax[b] = max(h.kmax[b], hi)
	h.used[b/64] |= 1 << (b % 64)
}

// eachUsed calls fn with every bucket h has counted into.
func (h *selHist) eachUsed(fn func(b uint64)) {
	for i, word := range h.used {
		for ; word != 0; word &= word - 1 {
			fn(uint64(i*64 + bits.TrailingZeros64(word)))
		}
	}
}

// release empties h and returns it to the pool; h must not be used
// after.
func (h *selHist) release() {
	h.eachUsed(func(b uint64) { h.counts[b], h.kmin[b], h.kmax[b] = 0, ^uint64(0), 0 })
	h.used = [selBuckets / 64]uint64{}
	selHists.Put(h)
}

// merge folds another histogram into h: counts add, key minima/maxima
// tighten. The merge is commutative and associative, so any fold order
// — worker order, party order — yields the identical histogram.
func (h *selHist) merge(o *selHist) {
	o.eachUsed(func(b uint64) { h.add(b, o.counts[b], o.kmin[b], o.kmax[b]) })
}

// countCutHist runs one counting pass of the histogram selection over
// the graph's canonical entries: every canonical weight key matching
// the candidate prefix (key>>(shift+16) == prefix) is counted into its
// 16-bit bucket, tracking per-bucket key min/max. It returns the merged
// histogram of all workers.
func countCutHist(ctx context.Context, g *graph.CSR, workers int, prefix uint64, shift uint) (*selHist, error) {
	hists := make([]*selHist, pruneWorkerCount(workers, numChunks(g.NumProfiles)))
	for i := range hists {
		hists[i] = newSelHist()
	}
	// hists[w.id] belongs to its goroutine alone; the merge below is
	// commutative, so the racy chunk assignment cannot influence the
	// outcome.
	err := runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		h := hists[w.id]
		return forChunkCanonical(g, w, chunk, func(_, _ int32, wt float64) {
			if key := weightKey(wt); key>>(shift+selBucketBits) == prefix {
				h.add((key>>shift)&selBucketMask, 1, key, key)
			}
		})
	})
	if err != nil {
		for _, h := range hists {
			h.release()
		}
		return nil, err
	}
	for _, o := range hists[1:] {
		hists[0].merge(o)
		o.release()
	}
	return hists[0], nil
}

// cepCut returns the k-th largest canonical edge weight of the graph
// the parties hold (callers guarantee 1 <= k <= its edge count), the
// number of edges whose weight is strictly greater — exactly the cut
// and `greater` a sort-based CEP derives from its flat weight array —
// and the number of edges tying exactly at the cut (the final cut
// bucket's population). Each round every party counts what it holds at
// the scan's prefix and shift, the histograms fold in party order, and
// the scan narrows the prefix to the bucket holding the k-th largest
// key, until that bucket is one distinct key: at most four rounds.
func cepCut(ctx context.Context, g *graph.CSR, workers, k int, p Parties) (cut float64, greater, ties int, err error) {
	rank := int64(k)  // rank of the cut among the candidates, from the top
	above := int64(0) // keys strictly above the candidates
	prefix, shift := uint64(0), uint(48)
	// shared is this party's histogram of the last round, which the
	// other parties read until they have all gathered the next one.
	var shared *selHist
	for {
		h, err := countCutHist(ctx, g, workers, prefix, shift)
		if err != nil {
			return 0, 0, 0, err
		}
		hs, err := p.Gather(h)
		if err != nil {
			return 0, 0, 0, err
		}
		if shared != nil {
			shared.release()
			shared = nil
		}
		if len(hs) > 1 {
			shared, h = h, newSelHist()
			for _, o := range hs {
				h.merge(o.(*selHist))
			}
		}
		// Find the bucket holding the rank-th largest candidate key,
		// walking the used buckets from the top.
		cum, b := int64(0), 0
	scan:
		for i := len(h.used) - 1; i >= 0; i-- {
			for word := h.used[i]; word != 0; word &^= 1 << (b % 64) {
				b = i*64 + 63 - bits.LeadingZeros64(word)
				if cum += h.counts[b]; cum >= rank {
					break scan
				}
			}
		}
		above += cum - h.counts[b]
		rank -= cum - h.counts[b]
		if h.kmin[b] == h.kmax[b] || shift == 0 {
			// Every remaining candidate in the cut bucket carries the
			// same key (always true at shift 0, where a bucket is one
			// exact key): it is the cut, nothing inside it ties above,
			// and the bucket's population is the global tie count.
			cut, ties := keyWeight(h.kmin[b]), int(h.counts[b])
			h.release()
			return cut, int(above), ties, nil
		}
		h.release()
		prefix = prefix<<selBucketBits | uint64(b)
		shift -= selBucketBits
	}
}
