// Package edgelist is the reference implementation the meta-blocking
// kernels are tested against — and nothing else. It materializes the
// blocking graph the obvious way (one global pair map, one 40-byte Edge
// per comparison, a sort) and prunes it with one sort or scan per
// scheme, serially, with no cancellation and no tuning: every line is
// meant to be checked by reading it against Section 2.2 and 3.3 of the
// paper. The production path (graph.CSR, weights.ApplyCSR, the
// streaming schemes of package prune) must retain byte-identical pairs.
//
// Only _test.go files may import it (TestReferenceIsTestOnly), and it
// imports nothing of the code under test: a weighting arrives as a
// function (Graph.Weigh), CEP's and CNP's budgets and the row width of
// WEP's summation order as arguments.
package edgelist

import (
	"sort"

	"blast/internal/blocking"
	"blast/internal/model"
)

// Edge is one blocking-graph edge between profiles U < V.
type Edge struct {
	U, V int32
	// Common is |B_uv|: the number of blocks shared by U and V.
	Common int32
	// ARCS accumulates sum over shared blocks of 1/||b||.
	ARCS float64
	// EntropySum accumulates sum over shared blocks of h(b), the block's
	// cluster aggregate entropy; h(B_uv) = EntropySum / Common.
	EntropySum float64
	// Weight is filled in by Graph.Weigh.
	Weight float64
}

// Pair returns the canonical id pair of the edge.
func (e *Edge) Pair() model.IDPair { return model.IDPair{U: e.U, V: e.V} }

// Graph is a blocking graph in edge-list form with per-node statistics.
type Graph struct {
	// NumProfiles is the number of nodes (profiles of the dataset,
	// whether or not they have edges).
	NumProfiles int
	// Edges holds the deduplicated edges sorted by (U, V).
	Edges []Edge
	// BlockCounts is |B_i| per profile in the underlying collection.
	BlockCounts []int32
	// Degrees is the number of adjacent edges per node (|v_i|, used by
	// EJS).
	Degrees []int32
	// TotalBlocks is |B|, the number of blocks of the collection.
	TotalBlocks int
	// TotalComparisons is ||B||, the aggregate cardinality.
	TotalComparisons int64
}

// Build constructs the blocking graph of a block collection: every
// comparison of every block is accumulated into a map keyed by the pair
// (blocks in ascending order, which fixes the order of the per-edge
// floating-point sums), and the edges are sorted by (U, V).
func Build(c *blocking.Collection) *Graph {
	edges := make(map[uint64]*Edge)
	for i := 0; i < c.Len(); i++ {
		b := c.Block(i)
		cmp := b.Comparisons()
		if cmp == 0 {
			continue
		}
		inv := 1 / float64(cmp)
		b.ForEachPair(func(u, v int32) {
			p := model.MakePair(int(u), int(v))
			e := edges[p.Key()]
			if e == nil {
				e = &Edge{U: p.U, V: p.V}
				edges[p.Key()] = e
			}
			e.Common++
			e.ARCS += inv
			e.EntropySum += b.Entropy
		})
	}

	g := &Graph{
		NumProfiles:      c.NumProfiles,
		Edges:            make([]Edge, 0, len(edges)),
		BlockCounts:      c.ProfileBlockCounts(),
		Degrees:          make([]int32, c.NumProfiles),
		TotalBlocks:      c.Len(),
		TotalComparisons: c.AggregateCardinality(),
	}
	for _, e := range edges {
		g.Edges = append(g.Edges, *e)
		g.Degrees[e.U]++
		g.Degrees[e.V]++
	}
	sort.Slice(g.Edges, func(i, j int) bool { return g.Edges[i].Pair().Key() < g.Edges[j].Pair().Key() })
	return g
}

// NumEdges returns the number of distinct comparisons the graph entails.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Adjacency returns, for every node, the indexes (into Edges) of its
// incident edges, in ascending neighbor order.
func (g *Graph) Adjacency() [][]int32 {
	adj := make([][]int32, g.NumProfiles)
	for i := range g.Edges {
		e := &g.Edges[i]
		adj[e.U] = append(adj[e.U], int32(i))
		adj[e.V] = append(adj[e.V], int32(i))
	}
	return adj
}

// EdgeBetween returns the edge connecting u and v, or nil (binary
// search on the sorted edge list).
func (g *Graph) EdgeBetween(u, v int) *Edge {
	k := model.MakePair(u, v).Key()
	i := sort.Search(len(g.Edges), func(i int) bool { return g.Edges[i].Pair().Key() >= k })
	if i < len(g.Edges) && g.Edges[i].Pair().Key() == k {
		return &g.Edges[i]
	}
	return nil
}

// Weigh sets every edge's weight to fn of its statistics: common =
// |B_uv|, bu/bv = |B_u|/|B_v|, du/dv the node degrees (smaller endpoint
// first), then the ARCS and entropy masses. Callers pass the production
// weigher — weights.Scheme.Weigher(g.NumEdges(), g.TotalBlocks).Weight —
// so the reference and the CSR kernel share the per-edge formula and
// differ in everything around it.
func (g *Graph) Weigh(fn func(common, bu, bv, du, dv int32, arcs, entropySum float64) float64) {
	for i := range g.Edges {
		e := &g.Edges[i]
		e.Weight = fn(e.Common,
			g.BlockCounts[e.U], g.BlockCounts[e.V],
			g.Degrees[e.U], g.Degrees[e.V],
			e.ARCS, e.EntropySum)
	}
}

// Pairs materializes the pairs of the given edge indexes (the return
// value of a pruning scheme), in the same order.
func (g *Graph) Pairs(idx []int) []model.IDPair {
	out := make([]model.IDPair, len(idx))
	for i, e := range idx {
		out[i] = g.Edges[e].Pair()
	}
	return out
}

// Every pruning scheme takes a weighted graph and returns the indexes of
// the retained edges, ascending.

// retain returns the indexes of the positive-weight edges keep accepts.
// Zero- and negative-weight edges are never retained by any scheme: a
// zero weight means the weighting found no evidence for the pair.
func (g *Graph) retain(keep func(i int, e *Edge) bool) []int {
	var out []int
	for i := range g.Edges {
		if e := &g.Edges[i]; e.Weight > 0 && keep(i, e) {
			out = append(out, i)
		}
	}
	return out
}

// WEP (Weight Edge Pruning) discards every edge whose weight is below
// the mean edge weight. A floating-point mean depends on the order of
// its additions, and the pruning decision fixes one its parties can
// fold from gathered row sums: one partial per
// smaller-endpoint row, rows folded in ascending order into one partial
// per chunk of chunkRows consecutive rows, chunk partials added in
// chunk order. The reference sums in that same documented order
// (chunkRows is prune.ChunkNodes), straight off the sorted edge list.
func WEP(g *Graph, chunkRows int) []int {
	if len(g.Edges) == 0 {
		return nil
	}
	sum, chunkSum, rowSum := 0.0, 0.0, 0.0
	for i := range g.Edges {
		rowSum += g.Edges[i].Weight
		u, last := int(g.Edges[i].U), i == len(g.Edges)-1
		if last || int(g.Edges[i+1].U) != u { // the row ends here
			chunkSum += rowSum
			rowSum = 0
		}
		if last || int(g.Edges[i+1].U)/chunkRows != u/chunkRows { // and so does the chunk
			sum += chunkSum
			chunkSum = 0
		}
	}
	theta := sum / float64(len(g.Edges))
	return g.retain(func(_ int, e *Edge) bool { return e.Weight >= theta })
}

// CEP (Cardinality Edge Pruning) sorts edges by descending weight and
// retains the top k (callers resolve a defaulted budget through
// prune.CEPBudget). Ties at the cut keep the earlier (canonically
// smaller) edges.
func CEP(g *Graph, k int) []int {
	if len(g.Edges) == 0 || k <= 0 {
		return nil
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
	top := make([]bool, len(g.Edges))
	for _, idx := range order[:k] {
		top[idx] = true
	}
	return g.retain(func(i int, _ *Edge) bool { return top[i] })
}

// nodeThresholds computes, for every node, a threshold from its adjacent
// edge weights (in ascending neighbor order) using reduce. Nodes without
// edges get threshold 0.
func nodeThresholds(g *Graph, reduce func(ws []float64) float64) []float64 {
	th := make([]float64, g.NumProfiles)
	var buf []float64
	for node, edges := range g.Adjacency() {
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

// resolve combines the two per-endpoint decisions of a node-centric
// scheme (Figure 7 of the paper): redefined pruning retains an edge
// either endpoint keeps, reciprocal pruning one both keep.
func resolve(byU, byV, reciprocal bool) bool {
	if reciprocal {
		return byU && byV
	}
	return byU || byV
}

// WNP (Weight Node Pruning) applies a per-node weight threshold — the
// mean weight of the node's adjacent edges — and resolves the two
// thresholds of each edge redefined or reciprocal.
func WNP(g *Graph, reciprocal bool) []int {
	th := nodeThresholds(g, func(ws []float64) float64 {
		s := 0.0
		for _, w := range ws {
			s += w
		}
		return s / float64(len(ws))
	})
	return g.retain(func(_ int, e *Edge) bool {
		return resolve(e.Weight >= th[e.U], e.Weight >= th[e.V], reciprocal)
	})
}

// CNP (Cardinality Node Pruning) retains, per node, its top-k adjacent
// edges by weight (callers resolve a defaulted budget through
// prune.CNPBudget), resolved redefined or reciprocal. It is deliberately
// sort-based — each node's incident edges stably sorted by descending
// weight, the first k marked — because it is the independent oracle of
// the streaming scheme's selection-cut kernel and must not share it.
func CNP(g *Graph, k int, reciprocal bool) []int {
	if len(g.Edges) == 0 || k <= 0 {
		return nil
	}
	// byU[e] / byV[e]: edge e is in the top k of its U / V endpoint.
	byU := make([]bool, len(g.Edges))
	byV := make([]bool, len(g.Edges))
	var order []int32
	for node, edges := range g.Adjacency() {
		order = append(order[:0], edges...)
		sort.SliceStable(order, func(a, b int) bool {
			return g.Edges[order[a]].Weight > g.Edges[order[b]].Weight
		})
		for _, ei := range order[:min(k, len(order))] {
			if int(g.Edges[ei].U) == node {
				byU[ei] = true
			} else {
				byV[ei] = true
			}
		}
	}
	return g.retain(func(i int, _ *Edge) bool { return resolve(byU[i], byV[i], reciprocal) })
}

// BlastWNP is the pruning scheme of Section 3.3.2: each node's threshold
// is a fraction of its local maximum edge weight, theta_i = M_i / c, and
// an edge is retained iff its weight reaches the combined threshold
// (theta_u + theta_v) / d. Non-positive c and d select the paper's
// defaults c = 2 and d = 2.
func BlastWNP(g *Graph, c, d float64) []int {
	if c <= 0 {
		c = 2
	}
	if d <= 0 {
		d = 2
	}
	th := nodeThresholds(g, func(ws []float64) float64 {
		m := ws[0]
		for _, w := range ws[1:] {
			if w > m {
				m = w
			}
		}
		return m / c
	})
	return g.retain(func(_ int, e *Edge) bool { return e.Weight >= (th[e.U]+th[e.V])/d })
}
