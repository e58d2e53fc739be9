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
// of |E|.
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
// of candidate keys and their key min/max.
type selHist struct {
	counts [selBuckets]int64
	kmin   [selBuckets]uint64
	kmax   [selBuckets]uint64
}

// newSelHist returns an empty histogram (counts zero, minima saturated
// high, maxima low), ready to merge into.
func newSelHist() *selHist {
	h := &selHist{}
	for i := range h.kmin {
		h.kmin[i] = ^uint64(0)
	}
	return h
}

// merge folds another histogram into h: counts add, key minima/maxima
// tighten. The merge is commutative and associative, so any fold order
// — worker order, party order — yields the identical histogram.
func (h *selHist) merge(o *selHist) {
	for b := range h.counts {
		if o.counts[b] == 0 {
			continue
		}
		h.counts[b] += o.counts[b]
		h.kmin[b] = min(h.kmin[b], o.kmin[b])
		h.kmax[b] = max(h.kmax[b], o.kmax[b])
	}
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
			key := weightKey(wt)
			if key>>(shift+selBucketBits) != prefix {
				return
			}
			b := (key >> shift) & selBucketMask
			h.counts[b]++
			h.kmin[b] = min(h.kmin[b], key)
			h.kmax[b] = max(h.kmax[b], key)
		})
	})
	if err != nil {
		return nil, err
	}
	for _, o := range hists[1:] {
		hists[0].merge(o)
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
	for {
		h, err := countCutHist(ctx, g, workers, prefix, shift)
		if err != nil {
			return 0, 0, 0, err
		}
		hs, err := p.Gather(h)
		if err != nil {
			return 0, 0, 0, err
		}
		if len(hs) > 1 {
			h = newSelHist()
			for _, o := range hs {
				h.merge(o.(*selHist))
			}
		}
		// Find the bucket holding the rank-th largest candidate key.
		cum := int64(0)
		b := selBuckets - 1
		for ; b > 0; b-- {
			if c := h.counts[b]; c > 0 {
				cum += c
				if cum >= rank {
					break
				}
			}
		}
		if b == 0 {
			cum += h.counts[0]
		}
		above += cum - h.counts[b]
		rank -= cum - h.counts[b]
		if h.kmin[b] == h.kmax[b] || shift == 0 {
			// Every remaining candidate in the cut bucket carries the
			// same key (always true at shift 0, where a bucket is one
			// exact key): it is the cut, nothing inside it ties above,
			// and the bucket's population is the global tie count.
			return keyWeight(h.kmin[b]), int(above), int(h.counts[b]), nil
		}
		prefix = prefix<<selBucketBits | uint64(b)
		shift -= selBucketBits
	}
}
