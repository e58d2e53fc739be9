// Package weights implements the edge-weighting schemes of graph-based
// meta-blocking: the five classic schemes of Papadakis et al. (ARCS, CBS,
// ECBS, JS, EJS) and BLAST's chi-squared weighting scaled by the
// aggregate entropy of the shared blocking keys (Section 3.3.1 of the
// paper). Every scheme can optionally be multiplied by h(B_uv), which is
// how the paper's "wsh" ablation (classic schemes + entropy) is obtained.
package weights

import (
	"context"
	"fmt"
	"math"

	"blast/internal/graph"
	"blast/internal/stats"
)

// Kind enumerates the base weighting functions.
type Kind int

const (
	// CBS (Common Blocks Scheme) counts the blocks shared by the two
	// profiles: w = |B_uv|.
	CBS Kind = iota
	// ECBS (Enhanced CBS) discounts profiles that appear in many blocks:
	// w = |B_uv| * log(|B|/|B_u|) * log(|B|/|B_v|).
	ECBS
	// ARCS (Aggregate Reciprocal Comparisons Scheme) rewards small
	// blocks: w = sum over shared blocks of 1/||b||.
	ARCS
	// JS weighs by the Jaccard coefficient of the profiles' block sets:
	// w = |B_uv| / (|B_u| + |B_v| - |B_uv|).
	JS
	// EJS (Enhanced JS) additionally discounts high-degree nodes:
	// w = JS * log(|E|/|v_u|) * log(|E|/|v_v|), |E| = number of edges.
	EJS
	// ChiSquared is BLAST's base weight: Pearson's chi-squared statistic
	// of the profiles' co-occurrence contingency table (Table 1).
	ChiSquared
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CBS:
		return "CBS"
	case ECBS:
		return "ECBS"
	case ARCS:
		return "ARCS"
	case JS:
		return "JS"
	case EJS:
		return "EJS"
	case ChiSquared:
		return "chi2"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Classic lists the five traditional schemes compared in the paper's
// Tables 4-5 (their rows average over these).
func Classic() []Kind { return []Kind{ARCS, CBS, ECBS, JS, EJS} }

// Scheme is a configured weighting: a base kind, optionally scaled by the
// edge's aggregate entropy h(B_uv).
type Scheme struct {
	Kind    Kind
	Entropy bool
}

// Blast returns the paper's weighting: chi-squared scaled by entropy.
func Blast() Scheme { return Scheme{Kind: ChiSquared, Entropy: true} }

// Weigher computes single-edge weights for a scheme over fixed
// graph-level totals. It is the one per-edge formula: the CSR kernel
// and the weighing fill pass (both through Scheme.EntryWeight) and the
// edge-list reference the kernels are tested against all funnel every
// edge through it.
type Weigher struct {
	scheme         Scheme
	numEdges       float64
	totalBlocks    float64
	totalBlocksInt int
}

// Weigher returns the per-edge weight function of the scheme for a graph
// with the given edge and block totals.
func (s Scheme) Weigher(numEdges, totalBlocks int) Weigher {
	return Weigher{
		scheme:         s,
		numEdges:       float64(numEdges),
		totalBlocks:    float64(totalBlocks),
		totalBlocksInt: totalBlocks,
	}
}

// Weight computes the weight of the edge (u, v) from its accumulators:
// common = |B_uv|, bu/bv = |B_u|/|B_v|, du/dv = the node degrees, arcs
// the ARCS mass and entropySum the aggregate entropy mass. Arguments
// follow the canonical orientation (u < v): all schemes are symmetric,
// but floating-point products are evaluated left to right, so callers
// must pass the smaller endpoint's statistics first for reproducibility.
func (w Weigher) Weight(common, bu, bv, du, dv int32, arcs, entropySum float64) float64 {
	buF := float64(bu)
	bvF := float64(bv)
	commonF := float64(common)
	var out float64
	switch w.scheme.Kind {
	case CBS:
		out = commonF
	case ECBS:
		out = commonF * safeLog(w.totalBlocks/buF) * safeLog(w.totalBlocks/bvF)
	case ARCS:
		out = arcs
	case JS:
		if d := buF + bvF - commonF; d > 0 {
			out = commonF / d
		}
	case EJS:
		var js float64
		if d := buF + bvF - commonF; d > 0 {
			js = commonF / d
		}
		out = js * safeLog(w.numEdges/float64(du)) * safeLog(w.numEdges/float64(dv))
	case ChiSquared:
		tab := stats.NewContingency(int(common), int(bu), int(bv), w.totalBlocksInt)
		out = tab.PositiveAssociation()
	default:
		panic(fmt.Sprintf("weights: unknown kind %d", int(w.scheme.Kind)))
	}
	if w.scheme.Entropy {
		// h(B_uv), 1 when the edge has no recorded entropy mass — the
		// same convention as Edge.EntropyMean.
		h := 1.0
		if common != 0 && entropySum != 0 {
			h = entropySum / commonF
		}
		out *= h
	}
	return out
}

// ApplyCSR computes the weight of every adjacency entry of g, one
// worker per CPU: ApplyCSRCtx with a background context and workers = 0.
// Over a spilled graph an I/O failure is not lost: it stays on the
// graph (graph.CSR.Err) and every later pass refuses it.
func (s Scheme) ApplyCSR(g *graph.CSR) {
	_ = s.ApplyCSRCtx(context.Background(), g, 0)
}

// ApplyCSRCtx weighs a full graph on `workers` goroutines (0 = one per
// CPU): ApplyOwnedCSR over a graph that owns every row, so its degree
// vector and edge count are its own.
func (s Scheme) ApplyCSRCtx(ctx context.Context, g *graph.CSR, workers int) error {
	return s.ApplyOwnedCSR(ctx, g, g.Degrees(), g.NumEdges(), workers)
}

// ApplyOwnedCSR is the one CSR weighting: it computes the weight of
// every adjacency entry g holds through the graph's row-parallel kernel
// (graph.CSR.WeighEntries) — in place over resident arrays, into a new
// weights segment over a spilled graph. g may be an owned-rows CSR
// (graph.BuildOwnedCSR), whose neighbor degrees are not derivable
// locally: degrees is the global per-node degree vector and numEdges
// the global edge count, both resolved by the cross-shard aggregate
// exchange. Every entry is weighted on its own with its arguments in
// canonical (lo, hi) orientation; an edge's two entries carry
// bit-identical statistics,
// so they come out bit-identical whether one pass weighs both or two
// shards weigh one each, at every worker count. It returns ctx.Err() if
// cancelled (all workers have exited; g's weights are then undefined,
// except that a spilled graph keeps its previous ones) and a spilled
// graph's I/O failure.
func (s Scheme) ApplyOwnedCSR(ctx context.Context, g *graph.CSR, degrees []int32, numEdges, workers int) error {
	return g.WeighEntries(ctx, workers, s.EntryWeight(g, degrees, numEdges))
}

// EntryWeight returns the scheme as the graph's per-entry weight: the
// Weigher of the given edge count and g's block total, fed g's per-node
// block counts and the given degrees in canonical (lo, hi) orientation.
// It is the one closure both sinks of the weight run through — the
// kernel over a built graph (ApplyOwnedCSR) and the fill pass that
// weighs as it emits (graph.OwnedBuild.Fill), which is what makes the
// two bit-identical — and it needs of g only the header the degree pass
// of a build already holds (graph.OwnedBuild.Header).
func (s Scheme) EntryWeight(g *graph.CSR, degrees []int32, numEdges int) graph.EntryWeight {
	w := s.Weigher(numEdges, g.TotalBlocks)
	blocks := g.BlockCounts
	return func(u, v, common int32, arcs, entropySum float64) float64 {
		if v < u {
			u, v = v, u
		}
		return w.Weight(common, blocks[u], blocks[v], degrees[u], degrees[v], arcs, entropySum)
	}
}

// safeLog returns log(x) clamped to 0 for x <= 1, keeping the
// ECBS/EJS discount factors non-negative on degenerate inputs (profiles
// appearing in every block, nodes adjacent to every edge).
func safeLog(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log(x)
}
