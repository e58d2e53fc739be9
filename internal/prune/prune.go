// Package prune implements the edge-pruning schemes of graph-based
// meta-blocking (Section 2.2 of the paper): the four classic schemes —
// WEP, CEP, WNP and CNP, the node-centric ones in both their redefined
// (retain if either endpoint keeps the edge) and reciprocal (both
// endpoints) variants (Papadakis et al., EDBT'16) — plus BLAST's
// weight-based node pruning with its edge-count-independent threshold
// theta_i = M_i / c and unique per-edge threshold (theta_u + theta_v) / d
// (Section 3.3.2).
//
// Every scheme takes a weighted graph (weights already applied) and
// returns the indexes of the retained edges, sorted ascending. Zero- and
// negative-weight edges are never retained: a zero weight means the
// weighting scheme found no evidence for the pair.
package prune

import (
	"sort"

	"blast/internal/graph"
)

// Mode selects how node-centric schemes resolve the two thresholds an
// edge is subject to (Figure 7 of the paper).
type Mode int

const (
	// Redefined retains an edge that satisfies the criterion of at least
	// one of its endpoints (wnp1/cnp1 in the paper's tables).
	Redefined Mode = iota
	// Reciprocal retains an edge only if it satisfies the criterion of
	// both endpoints (wnp2/cnp2).
	Reciprocal
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Reciprocal {
		return "reciprocal"
	}
	return "redefined"
}

// cepBudget is CEP's default comparison budget: half the total number of
// block memberships (sum |B_i| / 2), as in the meta-blocking literature.
func cepBudget(blockCounts []int32) int {
	total := 0
	for _, c := range blockCounts {
		total += int(c)
	}
	return total / 2
}

// cnpBudget is CNP's default per-node budget: the average number of
// blocks per profile, max(1, round(sum |B_i| / |V|)) over the profiles
// that appear in at least one block. Returns 0 when no profile does.
func cnpBudget(blockCounts []int32) int {
	total := 0
	active := 0
	for _, c := range blockCounts {
		total += int(c)
		if c > 0 {
			active++
		}
	}
	if active == 0 {
		return 0
	}
	k := (total + active/2) / active
	if k < 1 {
		k = 1
	}
	return k
}

// retained builds the sorted result slice from a keep mask.
func retained(keep []bool) []int {
	var out []int
	for i, k := range keep {
		if k {
			out = append(out, i)
		}
	}
	return out
}

// canonicalWeightSum sums the weights of a canonically sorted edge list
// with the fixed row-within-chunk reduction of the streaming schemes:
// one partial per smaller-endpoint row, rows folded in ascending order
// into one partial per node chunk, chunk partials combined in chunk
// order. It is bit-identical to chunkPartialSums+combinePartials over
// the CSR form of the same graph, which is what keeps the edge-list and
// streaming WEP byte-identical at every worker count (the chunk
// boundaries depend only on NumProfiles, never on workers) — and the
// per-row association is what lets partitioned shards exchange row sums
// and refold the identical total.
func canonicalWeightSum(edges []graph.Edge) float64 {
	sum, chunkPartial, rowPartial := 0.0, 0.0, 0.0
	chunk, row := -1, int32(-1)
	for i := range edges {
		u := edges[i].U
		if u != row {
			if row >= 0 {
				chunkPartial += rowPartial
			}
			rowPartial = 0
			if c := int(u) / chunkNodes; c != chunk {
				if chunk >= 0 {
					sum += chunkPartial
				}
				chunkPartial, chunk = 0, c
			}
			row = u
		}
		rowPartial += edges[i].Weight
	}
	if row >= 0 {
		chunkPartial += rowPartial
		sum += chunkPartial
	}
	return sum
}

// WEP (Weight Edge Pruning) discards every edge whose weight is below
// the global threshold Theta = the mean edge weight.
func WEP(g *graph.Graph) []int {
	if len(g.Edges) == 0 {
		return nil
	}
	theta := canonicalWeightSum(g.Edges) / float64(len(g.Edges))
	keep := make([]bool, len(g.Edges))
	for i := range g.Edges {
		w := g.Edges[i].Weight
		keep[i] = w >= theta && w > 0
	}
	return retained(keep)
}

// CEP (Cardinality Edge Pruning) sorts edges by descending weight and
// retains the top k. If k <= 0 it defaults to half the total number of
// block memberships (sum |B_i| / 2), the budget used in the meta-blocking
// literature. Ties at the cut keep the earlier (smaller index) edges for
// determinism.
func CEP(g *graph.Graph, k int) []int {
	if len(g.Edges) == 0 {
		return nil
	}
	if k <= 0 {
		k = cepBudget(g.BlockCounts)
	}
	if k > len(g.Edges) {
		k = len(g.Edges)
	}
	order := make([]int, len(g.Edges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Edges[order[a]].Weight > g.Edges[order[b]].Weight
	})
	keep := make([]bool, len(g.Edges))
	for _, idx := range order[:k] {
		if g.Edges[idx].Weight > 0 {
			keep[idx] = true
		}
	}
	return retained(keep)
}

// nodeThresholds computes, for every node, a threshold from its adjacent
// edge weights using reduce (e.g. mean or max/c). Nodes without edges get
// threshold 0.
func nodeThresholds(g *graph.Graph, adj [][]int32, reduce func(ws []float64) float64) []float64 {
	th := make([]float64, g.NumProfiles)
	var buf []float64
	for node, edges := range adj {
		if len(edges) == 0 {
			continue
		}
		buf = buf[:0]
		for _, ei := range edges {
			buf = append(buf, g.Edges[ei].Weight)
		}
		th[node] = reduce(buf)
	}
	return th
}

// WNP (Weight Node Pruning) applies a per-node weight threshold — the
// mean weight of the node's adjacent edges, as in the traditional
// meta-blocking of [20] — and resolves the two thresholds of each edge
// according to mode.
func WNP(g *graph.Graph, mode Mode) []int {
	adj := g.Adjacency()
	th := nodeThresholds(g, adj, func(ws []float64) float64 {
		s := 0.0
		for _, w := range ws {
			s += w
		}
		return s / float64(len(ws))
	})
	keep := make([]bool, len(g.Edges))
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Weight <= 0 {
			continue
		}
		overU := e.Weight >= th[e.U]
		overV := e.Weight >= th[e.V]
		if mode == Redefined {
			keep[i] = overU || overV
		} else {
			keep[i] = overU && overV
		}
	}
	return retained(keep)
}

// CNP (Cardinality Node Pruning) retains, per node, its top-k adjacent
// edges by weight, resolved by mode. If k <= 0 it defaults to the average
// number of blocks per profile, max(1, round(sum |B_i| / |V|)) — the
// node-centric comparison budget of the meta-blocking literature.
//
// It is deliberately sort-based — each node's incident edges stably
// sorted by descending weight, the first k marked: this is the
// independent oracle TestEngineEquivalence checks the selection-cut
// kernel of CNPStream against, so it must not share that kernel.
func CNP(g *graph.Graph, k int, mode Mode) []int {
	if len(g.Edges) == 0 {
		return nil
	}
	if k <= 0 {
		k = cnpBudget(g.BlockCounts)
		if k == 0 {
			return nil
		}
	}
	adj := g.Adjacency()
	// byU[e] / byV[e]: edge e is in the top k of its U / V endpoint.
	byU := make([]bool, len(g.Edges))
	byV := make([]bool, len(g.Edges))

	var order []int32
	for node, edges := range adj {
		if len(edges) == 0 {
			continue
		}
		order = append(order[:0], edges...)
		sort.SliceStable(order, func(a, b int) bool {
			return g.Edges[order[a]].Weight > g.Edges[order[b]].Weight
		})
		limit := k
		if limit > len(order) {
			limit = len(order)
		}
		for _, ei := range order[:limit] {
			if int(g.Edges[ei].U) == node {
				byU[ei] = true
			} else {
				byV[ei] = true
			}
		}
	}

	keep := make([]bool, len(g.Edges))
	for i := range g.Edges {
		if g.Edges[i].Weight <= 0 {
			continue
		}
		if mode == Redefined {
			keep[i] = byU[i] || byV[i]
		} else {
			keep[i] = byU[i] && byV[i]
		}
	}
	return retained(keep)
}

// BlastWNP is the pruning scheme of Section 3.3.2: each node's threshold
// is a fraction of its local maximum edge weight, theta_i = M_i / c,
// making the threshold independent of the node's number of adjacent
// edges; each edge is then retained iff its weight reaches the unique
// combined threshold (theta_u + theta_v) / d. The paper's defaults are
// c = 2 and d = 2 (the mean of the two local thresholds).
func BlastWNP(g *graph.Graph, c, d float64) []int {
	if c <= 0 {
		c = 2
	}
	if d <= 0 {
		d = 2
	}
	adj := g.Adjacency()
	th := nodeThresholds(g, adj, func(ws []float64) float64 {
		m := ws[0]
		for _, w := range ws[1:] {
			if w > m {
				m = w
			}
		}
		return m / c
	})
	keep := make([]bool, len(g.Edges))
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Weight <= 0 {
			continue
		}
		keep[i] = e.Weight >= (th[e.U]+th[e.V])/d
	}
	return retained(keep)
}
