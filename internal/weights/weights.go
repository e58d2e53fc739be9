// Package weights implements the edge-weighting schemes of graph-based
// meta-blocking: the five classic schemes of Papadakis et al. (ARCS, CBS,
// ECBS, JS, EJS) and BLAST's chi-squared weighting scaled by the
// aggregate entropy of the shared blocking keys (Section 3.3.1 of the
// paper). Every scheme can optionally be multiplied by h(B_uv), which is
// how the paper's "wsh" ablation (classic schemes + entropy) is obtained.
//
// χ², ECBS and JS depend on an edge only through |B_uv|, |B_u| and |B_v|
// (|B| and |E| are fixed for a graph), and after Block Filtering |B_u|
// takes few values. So Scheme.EntryWeight weighs those kinds by table:
// once per call it evaluates the unscaled formula for every
// |B_uv| ≤ min(|B_u|, |B_v|), |B_u|, |B_v| ≤ max|B_u|, and an entry is a
// lookup times h(B_uv). The table is indexed in canonical orientation
// (the lower id's count first), exactly the arguments the formula
// would get, so a weight is bit-identical whichever path computes it. A
// graph whose largest |B_u| reaches tableBound (64), or whose table
// would hold more cells than the entries it weighs, keeps the formula,
// as do EJS and ARCS, which read degrees and the ARCS mass, and CBS,
// which is |B_uv| itself.
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
// edge through it — directly, or through the weight table EntryWeight
// fills from it for χ², ECBS and JS (weightTable).
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
	return w.scale(w.base(common, bu, bv, du, dv, arcs), common, entropySum)
}

// base is the scheme's weight before the entropy factor.
func (w Weigher) base(common, bu, bv, du, dv int32, arcs float64) float64 {
	buF := float64(bu)
	bvF := float64(bv)
	commonF := float64(common)
	switch w.scheme.Kind {
	case CBS:
		return commonF
	case ECBS:
		return commonF * safeLog(w.totalBlocks/buF) * safeLog(w.totalBlocks/bvF)
	case ARCS:
		return arcs
	case JS:
		if d := buF + bvF - commonF; d > 0 {
			return commonF / d
		}
		return 0
	case EJS:
		var js float64
		if d := buF + bvF - commonF; d > 0 {
			js = commonF / d
		}
		return js * safeLog(w.numEdges/float64(du)) * safeLog(w.numEdges/float64(dv))
	case ChiSquared:
		tab := stats.NewContingency(int(common), int(bu), int(bv), w.totalBlocksInt)
		return tab.PositiveAssociation()
	default:
		panic(fmt.Sprintf("weights: unknown kind %d", int(w.scheme.Kind)))
	}
}

// scale multiplies a base weight by h(B_uv) when the scheme asks for
// it: 1 when the edge has no recorded entropy mass — the same
// convention as Edge.EntropyMean.
func (w Weigher) scale(out float64, common int32, entropySum float64) float64 {
	if w.scheme.Entropy {
		h := 1.0
		if common != 0 && entropySum != 0 {
			h = entropySum / float64(common)
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
//
// For χ², ECBS and JS it first builds the weight table (weightTable),
// shared read-only by every worker the closure runs on, and an entry
// whose |B_uv| ≤ min(|B_u|, |B_v|) reads its base weight there;
// anything else, and every entry of the other kinds or of a graph that
// gets no table, is weighed by the formula.
func (s Scheme) EntryWeight(g *graph.CSR, degrees []int32, numEdges int) graph.EntryWeight {
	w := s.Weigher(numEdges, g.TotalBlocks)
	blocks := g.BlockCounts
	tab, m := w.weightTable(blocks, g.NumEntries())
	return func(u, v, common int32, arcs, entropySum float64) float64 {
		if v < u {
			u, v = v, u
		}
		bu, bv := blocks[u], blocks[v]
		if tab != nil && common <= min(bu, bv) {
			return w.scale(tab[(int(bu)*m+int(bv))*m+int(common)], common, entropySum)
		}
		return w.Weight(common, bu, bv, degrees[u], degrees[v], arcs, entropySum)
	}
}

// tableBound bounds the weight table: a graph whose largest |B_u| is
// tableBound or more weighs by the formula. The largest table holds
// tableBound³ cells, 2 MiB.
const tableBound = 64

// weightTable memoizes the base weight (before h) of a scheme that
// reads only block counts — χ², ECBS and JS — over a graph whose per-node
// block counts are blocks and that weighs `entries` adjacency entries.
// With m = max|B_u| + 1, the cell (|B_u|·m + |B_v|)·m + |B_uv| holds the
// base weight of every |B_uv| ≤ min(|B_u|, |B_v|). The cells are
// indexed by canonical orientation, |B_u| the lower id's count, and not
// by min/max, because the formulas evaluate left to right: χ²'s sum and
// ECBS's product come out in different last bits when the two counts
// swap. It returns nil for any other kind, when m exceeds tableBound, or
// when the table would have more cells than the entries it weighs, so a
// small graph never pays for one.
func (w Weigher) weightTable(blocks []int32, entries int64) ([]float64, int) {
	if k := w.scheme.Kind; k != ChiSquared && k != ECBS && k != JS {
		return nil, 0
	}
	m := 1
	for _, b := range blocks {
		m = max(m, int(b)+1)
	}
	if m > tableBound || int64(m)*int64(m)*int64(m) > entries {
		return nil, 0
	}
	tab := make([]float64, m*m*m)
	for bu := range int32(m) {
		for bv := range int32(m) {
			row := tab[(int(bu)*m+int(bv))*m:]
			for c := range min(bu, bv) + 1 {
				row[c] = w.base(c, bu, bv, 0, 0, 0)
			}
		}
	}
	return tab, m
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
