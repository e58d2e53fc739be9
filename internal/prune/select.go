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
// counts and key min/max merge commutatively, so the selected cut is
// byte-identical for every worker count (determinism rule 3 of
// parallel.go).
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

// selHist is one worker's histogram of a counting pass.
type selHist struct {
	counts [selBuckets]int64
	kmin   [selBuckets]uint64
	kmax   [selBuckets]uint64
}

func (h *selHist) reset() {
	for i := range h.counts {
		h.counts[i] = 0
		h.kmin[i] = ^uint64(0)
		h.kmax[i] = 0
	}
}

// CountCutHist runs one counting pass of the histogram selection over
// the graph's canonical entries: every canonical weight key matching the
// candidate prefix (key>>(shift+16) == prefix) is counted into its
// 16-bit bucket, tracking per-bucket key min/max. The returned slices
// are the merged histogram of all workers (length 2^16 each); counts
// and min/max merge commutatively across workers — and across shards of
// a partitioned server, whose owned-rows graphs partition the canonical
// entries, which is why element-wise merging per-shard histograms in
// any order reproduces the whole-graph histogram exactly.
func CountCutHist(ctx context.Context, g *graph.CSR, workers int, prefix uint64, shift uint) (counts []int64, kmin, kmax []uint64, err error) {
	nch := numChunks(g.NumProfiles)
	nw := pruneWorkerCount(workers, nch)
	hists := make([]*selHist, nw)
	for i := range hists {
		hists[i] = &selHist{}
		hists[i].reset()
	}
	// hists[w.id] belongs to its goroutine alone; the merge below is
	// commutative, so the racy chunk assignment cannot influence the
	// outcome.
	err = runChunks(ctx, g, workers, func(w *pruneWorker, chunk int) error {
		h := hists[w.id]
		return forChunkCanonical(g, w, chunk, func(_, _ int32, wt float64) {
			key := weightKey(wt)
			if key>>(shift+selBucketBits) != prefix {
				return
			}
			b := (key >> shift) & selBucketMask
			h.counts[b]++
			if key < h.kmin[b] {
				h.kmin[b] = key
			}
			if key > h.kmax[b] {
				h.kmax[b] = key
			}
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	merged := hists[0]
	for _, h := range hists[1:] {
		MergeCutHist(merged.counts[:], merged.kmin[:], merged.kmax[:],
			h.counts[:], h.kmin[:], h.kmax[:])
	}
	return merged.counts[:], merged.kmin[:], merged.kmax[:], nil
}

// MergeCutHist folds one counting histogram into another in place:
// counts add, key minima/maxima tighten. The merge is commutative and
// associative, so any fold order — worker order, shard order — yields
// the identical merged histogram.
func MergeCutHist(counts []int64, kmin, kmax []uint64, ocounts []int64, okmin, okmax []uint64) {
	for b := range counts {
		if ocounts[b] == 0 {
			continue
		}
		counts[b] += ocounts[b]
		if okmin[b] < kmin[b] {
			kmin[b] = okmin[b]
		}
		if okmax[b] > kmax[b] {
			kmax[b] = okmax[b]
		}
	}
}

// NewCutHist returns an empty counting histogram (counts zero, minima
// saturated high, maxima low) ready to be a MergeCutHist accumulator.
func NewCutHist() (counts []int64, kmin, kmax []uint64) {
	h := &selHist{}
	h.reset()
	return h.counts[:], h.kmin[:], h.kmax[:]
}

// CutScan is the refinement state of the histogram selection: it
// consumes one merged counting histogram per Step and narrows the
// candidate prefix until the bucket holding the k-th largest key is a
// single distinct key. It carries no graph state, so a partitioned
// server drives the identical scan from shard-merged histograms: each
// round, every shard counts its owned rows at the scan's Prefix/Shift,
// the histograms merge in shard order, and one Step advances the scan —
// at most four rounds, exactly like the local selectCut.
type CutScan struct {
	rank    int64  // rank of the cut within the candidate set, from the top
	above   int64  // resolved count of keys strictly above the candidates
	prefix  uint64 // candidates satisfy key>>(shift+16) == prefix
	shift   uint
	done    bool
	cut     float64
	greater int
	ties    int
}

// NewCutScan starts a scan for the k-th largest canonical weight
// (callers guarantee 1 <= k <= the number of canonical edges).
func NewCutScan(k int) *CutScan {
	return &CutScan{rank: int64(k), shift: 48}
}

// Shift returns the bucket shift of the next counting pass.
func (cs *CutScan) Shift() uint { return cs.shift }

// Prefix returns the candidate prefix of the next counting pass.
func (cs *CutScan) Prefix() uint64 { return cs.prefix }

// Step consumes the merged histogram of one counting pass at the scan's
// current Prefix/Shift and either resolves the cut (returning true —
// read it with Cut) or narrows the prefix for the next pass.
func (cs *CutScan) Step(counts []int64, kmin, kmax []uint64) bool {
	// Find the bucket holding the rank-th largest candidate key.
	cum := int64(0)
	b := selBuckets - 1
	for ; b > 0; b-- {
		if c := counts[b]; c > 0 {
			cum += c
			if cum >= cs.rank {
				break
			}
		}
	}
	if b == 0 {
		cum += counts[0]
	}
	cs.above += cum - counts[b]
	cs.rank -= cum - counts[b]
	if kmin[b] == kmax[b] || cs.shift == 0 {
		// Every remaining candidate in the cut bucket carries the same
		// key (always true at shift 0, where a bucket is one exact
		// key): it is the cut, nothing inside it ties above, and the
		// bucket's population is the global tie count.
		cs.done = true
		cs.cut = keyWeight(kmin[b])
		cs.greater = int(cs.above)
		cs.ties = int(counts[b])
		return true
	}
	cs.prefix = cs.prefix<<selBucketBits | uint64(b)
	cs.shift -= selBucketBits
	return false
}

// Cut returns the resolved cut weight, the count of canonical edges
// strictly above it, and the count tying exactly at it. Valid once Step
// has returned true.
func (cs *CutScan) Cut() (cut float64, greater, ties int) {
	return cs.cut, cs.greater, cs.ties
}

// selectCut returns the k-th largest canonical edge weight of the graph
// (callers guarantee 1 <= k <= NumEdges), the number of edges whose
// weight is strictly greater — exactly the cut and `greater` a
// sort-based CEP derives from its flat weight array — and the total
// number of edges tying exactly at the cut (the final cut
// bucket's population, free from the selection's own bookkeeping; the
// caller uses it to skip tie-ordinal accounting when every tie or no
// tie fits the budget).
func selectCut(ctx context.Context, g *graph.CSR, workers, k int) (cut float64, greater, ties int, err error) {
	cs := NewCutScan(k)
	for {
		counts, kmin, kmax, err := CountCutHist(ctx, g, workers, cs.Prefix(), cs.Shift())
		if err != nil {
			return 0, 0, 0, err
		}
		if cs.Step(counts, kmin, kmax) {
			cut, greater, ties = cs.Cut()
			return cut, greater, ties, nil
		}
	}
}
