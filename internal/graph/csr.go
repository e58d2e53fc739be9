package graph

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"

	"blast/internal/blocking"
)

// CSR is the node-centric (compressed sparse row) representation of the
// blocking graph: for every profile, a neighbor-sorted adjacency run in
// flat parallel arrays. Each undirected edge (u, v) appears twice — once
// in u's run and once in v's — so node-local computations (the theta_i
// thresholds of Section 3.3.2, per-node top-k) never consult anything
// beyond a node's own run.
//
// The representation exists for scale: Build/BuildParallel accumulate
// every edge in a global map keyed by the pair, which dominates memory
// and allocation churn once ||B|| reaches tens of millions. BuildCSR
// instead builds each node's run independently from the block index with
// an O(|profiles|) scratch accumulator, so peak allocation stays
// proportional to the output adjacency rather than to a hash table over
// it. The streaming pruning schemes (package prune) consume this form
// directly and never materialize an edge list.
type CSR struct {
	// NumProfiles is the number of nodes (profiles of the dataset,
	// whether or not they have edges).
	NumProfiles int
	// Offsets indexes the entry arrays: node i's adjacency run occupies
	// positions [Offsets[i], Offsets[i+1]).
	Offsets []int64
	// Neighbors holds the neighbor profile id of every entry. Within a
	// node's run entries are sorted by ascending neighbor id — the same
	// order in which Graph.Adjacency lists a node's incident edges.
	Neighbors []int32
	// Common, ARCS and EntropySum mirror the co-occurrence accumulators
	// of Edge, per entry (both entries of an undirected edge carry
	// identical values). They are only needed to compute Weights;
	// ReleaseStats drops them once weighting is done.
	Common     []int32
	ARCS       []float64
	EntropySum []float64
	// Weights is filled in by a weighting scheme (weights.Scheme.ApplyCSR),
	// one value per entry, mirrored across the two entries of an edge.
	Weights []float64

	// BlockCounts is |B_i| per profile in the underlying collection.
	BlockCounts []int32
	// TotalBlocks is |B|, the number of blocks of the collection.
	TotalBlocks int
	// TotalComparisons is ||B||, the aggregate cardinality.
	TotalComparisons int64

	// pages, when non-nil, backs the per-entry arrays with file-backed
	// node-aligned pages instead of the resident slices above (which are
	// then nil); see paged.go. Offsets and BlockCounts stay resident in
	// both modes. All access to Neighbors/Weights must go through the
	// run accessors (Run, Canonical*) so both backings
	// serve the identical bytes.
	pages *pagedEntries
}

// NumEntries returns the number of adjacency entries (2x the edges).
func (g *CSR) NumEntries() int64 {
	if n := len(g.Offsets); n > 0 {
		return g.Offsets[n-1]
	}
	return int64(len(g.Neighbors))
}

// NumEdges returns the number of distinct comparisons the graph entails.
func (g *CSR) NumEdges() int { return int(g.NumEntries() / 2) }

// Degree returns |v_i|, the number of edges adjacent to node i.
func (g *CSR) Degree(i int) int { return int(g.Offsets[i+1] - g.Offsets[i]) }

// Run returns node u's adjacency run: its neighbor ids and, once a
// weighting scheme has run, the matching per-entry weights (nil
// before). Entry i of the run sits at global position Offsets[u]+i in
// the entry arrays. The slices alias the graph's backing store — a
// resident sub-slice or a cached page — and must not be mutated or
// retained across other graph operations. This is the one accessor
// every pruning and serving pass iterates runs through, so the resident
// and spilled backings serve byte-identical data.
func (g *CSR) Run(u int) (nbr []int32, wts []float64) {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	if g.pages != nil {
		return g.pages.run(u, lo, hi)
	}
	nbr = g.Neighbors[lo:hi]
	if g.Weights != nil {
		wts = g.Weights[lo:hi]
	}
	return nbr, wts
}

// ReleaseStats drops the co-occurrence accumulators, keeping only the
// adjacency structure and Weights. Call after weighting when the graph
// will only be pruned: it returns roughly half the per-entry memory to
// the allocator before the pruning passes run. On a spilled graph the
// stat segment files are deleted.
func (g *CSR) ReleaseStats() {
	g.Common, g.ARCS, g.EntropySum = nil, nil, nil
	if g.pages != nil {
		g.pages.releaseStats()
	}
}

// ReleaseBlockCounts drops the per-profile block counts. They are
// weighting/budget inputs only — every serving read (Candidates,
// Pairs, thresholds) works without them — so a frozen query-only index
// releases them after its decisions are final; like the released
// co-occurrence stats, the first mutation re-derives them with a graph
// rebuild.
func (g *CSR) ReleaseBlockCounts() { g.BlockCounts = nil }

// csrCancelCheckEvery is the granularity at which the CSR builders and
// ctx-aware iterators poll for cancellation: every so many nodes on the
// outer walk AND every so many entries inside a single adjacency run,
// so one hub node with a multi-million-entry run cannot delay
// cancellation arbitrarily (the same edge-segment contract the chunked
// pruning passes honor).
const csrCancelCheckEvery = 1024

// Canonical invokes fn for every canonical (u < v) entry in ascending
// (u, v) order — exactly the order of Graph.Edges — passing the entry's
// position p into the entry arrays.
func (g *CSR) Canonical(fn func(u, v int32, p int64)) {
	_ = g.CanonicalCtx(context.Background(), fn)
}

// CanonicalCtx is Canonical with cooperative cancellation: it polls ctx
// every few thousand nodes and at edge-segment granularity inside each
// adjacency run, stopping early with ctx.Err(). Entries already visited
// have been passed to fn; callers must discard partial results on
// error.
func (g *CSR) CanonicalCtx(ctx context.Context, fn func(u, v int32, p int64)) error {
	budget := int64(csrCancelCheckEvery)
	for u := 0; u < g.NumProfiles; u++ {
		if u%csrCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		base, end := g.Offsets[u], g.Offsets[u+1]
		nbr, _ := g.Run(u)
		for p := base; p < end; {
			seg := end - p
			if seg > budget {
				seg = budget
			}
			for stop := p + seg; p < stop; p++ {
				if v := nbr[p-base]; int(v) > u {
					fn(int32(u), v, p)
				}
			}
			if budget -= seg; budget == 0 {
				budget = csrCancelCheckEvery
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CanonicalMirror is Canonical plus the position mp of each edge's
// reverse entry (the one in v's run pointing back at u), located in O(1)
// per edge: because the sub-v neighbors of any node v form the prefix of
// v's run in ascending order — the same order in which their canonical
// entries are visited — a per-node cursor into that prefix always lands
// on the current edge's mirror. Every consumer that needs both entries
// of an edge (weight mirroring, per-endpoint mark resolution) must go
// through this iterator rather than re-derive the invariant.
func (g *CSR) CanonicalMirror(fn func(u, v int32, p, mp int64)) {
	_ = g.CanonicalMirrorCtx(context.Background(), fn)
}

// CanonicalMirrorCtx is CanonicalMirror with cooperative cancellation,
// with the same early-stop contract as CanonicalCtx.
func (g *CSR) CanonicalMirrorCtx(ctx context.Context, fn func(u, v int32, p, mp int64)) error {
	cursors := make([]int64, g.NumProfiles)
	budget := int64(csrCancelCheckEvery)
	for u := 0; u < g.NumProfiles; u++ {
		if u%csrCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		base, end := g.Offsets[u], g.Offsets[u+1]
		nbr, _ := g.Run(u)
		for p := base; p < end; {
			seg := end - p
			if seg > budget {
				seg = budget
			}
			for stop := p + seg; p < stop; p++ {
				v := nbr[p-base]
				if int(v) < u {
					continue // reverse entry; visited from its canonical side
				}
				mp := g.Offsets[v] + cursors[v]
				cursors[v]++
				fn(int32(u), v, p, mp)
			}
			if budget -= seg; budget == 0 {
				budget = csrCancelCheckEvery
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// newCSRHeader fills in the collection-level statistics shared by the
// serial and parallel builders.
func newCSRHeader(c *blocking.Collection) *CSR {
	return &CSR{
		NumProfiles:      c.NumProfiles,
		Offsets:          make([]int64, c.NumProfiles+1),
		BlockCounts:      c.ProfileBlockCounts(),
		TotalBlocks:      c.Len(),
		TotalComparisons: c.AggregateCardinality(),
	}
}

// blockInverses precomputes 1/||b|| per block (0 for blocks that entail
// no comparisons, which accumulation then skips).
func blockInverses(c *blocking.Collection) []float64 {
	inv := make([]float64, len(c.Blocks))
	for i := range c.Blocks {
		if cmp := c.Blocks[i].Comparisons(); cmp > 0 {
			inv[i] = 1 / float64(cmp)
		}
	}
	return inv
}

// blockIndex is the exact-sized flat inverted index profile -> block ids
// (ascending): node i's blocks occupy blocks[offsets[i]:offsets[i+1]].
// Equivalent to Collection.BlocksOfProfiles but allocation-exact — two
// flat arrays instead of per-profile slices — because the node-centric
// builder exists to keep peak allocation tight.
type blockIndex struct {
	offsets []int64
	blocks  []int32
}

func (ix *blockIndex) of(node int32) []int32 {
	return ix.blocks[ix.offsets[node]:ix.offsets[node+1]]
}

func buildBlockIndex(c *blocking.Collection, counts []int32) blockIndex {
	n := len(counts)
	offsets := make([]int64, n+1)
	for i, ct := range counts {
		offsets[i+1] = offsets[i] + int64(ct)
	}
	blocks := make([]int32, offsets[n])
	cursor := make([]int64, n)
	add := func(ids []int32, bi int32) {
		for _, p := range ids {
			blocks[offsets[p]+cursor[p]] = bi
			cursor[p]++
		}
	}
	for i := range c.Blocks {
		add(c.Blocks[i].P1, int32(i))
		add(c.Blocks[i].P2, int32(i))
	}
	return blockIndex{offsets: offsets, blocks: blocks}
}

// nodeAcc is the reusable sparse accumulator of one node's adjacency:
// dense arrays indexed by neighbor id plus the list of touched ids. The
// arrays are O(NumProfiles) but are allocated once per builder (per
// worker for the parallel builder) and reset in O(degree) per node.
type nodeAcc struct {
	common  []int32
	arcs    []float64
	entropy []float64
	touched []int32
}

func newNodeAcc(n int) *nodeAcc {
	return &nodeAcc{
		common:  make([]int32, n),
		arcs:    make([]float64, n),
		entropy: make([]float64, n),
	}
}

func (a *nodeAcc) add(j int32, inv, entropy float64) {
	if a.common[j] == 0 {
		a.touched = append(a.touched, j)
	}
	a.common[j]++
	a.arcs[j] += inv
	a.entropy[j] += entropy
}

// accumulate fills the accumulator with node's co-occurrence statistics,
// visiting the node's blocks in ascending block order so that per-edge
// floating-point sums are bit-identical to the edge-list builders (which
// also accumulate in block order). Touched neighbor ids end up sorted.
func (a *nodeAcc) accumulate(c *blocking.Collection, inv []float64, ix *blockIndex, node int32) {
	for _, bi := range ix.of(node) {
		w := inv[bi]
		if w == 0 {
			continue
		}
		b := &c.Blocks[bi]
		if b.P2 != nil {
			// Clean-clean: only cross-source comparisons are valid.
			others := b.P2
			if int(node) >= c.Split {
				others = b.P1
			}
			for _, j := range others {
				a.add(j, w, b.Entropy)
			}
			continue
		}
		for _, j := range b.P1 {
			if j != node {
				a.add(j, w, b.Entropy)
			}
		}
	}
	slices.Sort(a.touched)
}

// reset clears the touched entries in O(degree).
func (a *nodeAcc) reset() {
	for _, j := range a.touched {
		a.common[j], a.arcs[j], a.entropy[j] = 0, 0, 0
	}
	a.touched = a.touched[:0]
}

// entryStore accumulates adjacency entries with doubling growth. Plain
// append grows large slices by ~1.25x, which allocates roughly 5x the
// final size over a build; doubling caps total churn at ~2x. These
// arrays dominate the engine's footprint, so the growth policy is the
// difference between beating the edge-list builder on allocation and
// merely matching it.
type entryStore struct {
	neighbors  []int32
	common     []int32
	arcs       []float64
	entropySum []float64
}

func growTo[T any](s []T, newCap int) []T {
	ns := make([]T, len(s), newCap)
	copy(ns, s)
	return ns
}

// appendNode flushes the accumulator's touched entries into the store.
func (st *entryStore) appendNode(acc *nodeAcc) {
	if need := len(st.neighbors) + len(acc.touched); need > cap(st.neighbors) {
		newCap := 2 * cap(st.neighbors)
		if newCap < need {
			newCap = need
		}
		if newCap < 1024 {
			newCap = 1024
		}
		st.neighbors = growTo(st.neighbors, newCap)
		st.common = growTo(st.common, newCap)
		st.arcs = growTo(st.arcs, newCap)
		st.entropySum = growTo(st.entropySum, newCap)
	}
	for _, j := range acc.touched {
		st.neighbors = append(st.neighbors, j)
		st.common = append(st.common, acc.common[j])
		st.arcs = append(st.arcs, acc.arcs[j])
		st.entropySum = append(st.entropySum, acc.entropy[j])
	}
}

// BuildCSR constructs the node-centric blocking graph of a block
// collection. It visits each block once per member profile, so the cost
// is proportional to 2*||B|| — the same asymptotics as Build — but no
// global edge map is ever allocated: memory is the output adjacency plus
// an O(NumProfiles) scratch accumulator. The resulting graph carries
// exactly the statistics of Build (per-edge values are bit-identical).
func BuildCSR(c *blocking.Collection) *CSR {
	g, _ := BuildCSRCtx(context.Background(), c)
	return g
}

// BuildCSRCtx is BuildCSR with cooperative cancellation: the per-node
// accumulation loop checks ctx every few thousand nodes and returns
// ctx.Err() as soon as cancellation is observed, discarding the partial
// adjacency.
func BuildCSRCtx(ctx context.Context, c *blocking.Collection) (*CSR, error) {
	g := newCSRHeader(c)
	ix := buildBlockIndex(c, g.BlockCounts)
	inv := blockInverses(c)
	acc := newNodeAcc(c.NumProfiles)
	var st entryStore
	for n := 0; n < c.NumProfiles; n++ {
		if n%csrCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		acc.accumulate(c, inv, &ix, int32(n))
		st.appendNode(acc)
		g.Offsets[n+1] = int64(len(st.neighbors))
		acc.reset()
	}
	g.Neighbors, g.Common, g.ARCS, g.EntropySum =
		st.neighbors, st.common, st.arcs, st.entropySum
	g.Weights = make([]float64, len(g.Neighbors))
	return g, nil
}

// BuildCSRParallel constructs the same graph as BuildCSR using workers
// goroutines (0 = GOMAXPROCS). Nodes are cut into contiguous ranges of
// roughly equal block-membership mass; each worker builds its range's
// adjacency independently (per-node computation touches only that
// worker's scratch), and the per-range chunks are concatenated in node
// order, so the result is byte-identical to the serial build.
func BuildCSRParallel(c *blocking.Collection, workers int) *CSR {
	g, _ := BuildCSRParallelCtx(context.Background(), c, workers)
	return g
}

// BuildCSRParallelCtx is BuildCSRParallel with cooperative cancellation:
// every worker polls ctx at node-chunk granularity and abandons its
// range, and the build returns ctx.Err() after the join, discarding the
// partial chunks.
func BuildCSRParallelCtx(ctx context.Context, c *blocking.Collection, workers int) (*CSR, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || c.NumProfiles < 2*workers {
		return BuildCSRCtx(ctx, c)
	}
	g := newCSRHeader(c)
	ix := buildBlockIndex(c, g.BlockCounts)
	inv := blockInverses(c)
	bounds := cutRanges(ix.offsets, workers)

	chunks := make([]entryStore, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := newNodeAcc(c.NumProfiles)
			ch := &chunks[w]
			for n := bounds[w]; n < bounds[w+1]; n++ {
				if (n-bounds[w])%csrCancelCheckEvery == 0 && ctx.Err() != nil {
					return
				}
				acc.accumulate(c, inv, &ix, int32(n))
				ch.appendNode(acc)
				// Chunk-local offset; rebased after the join. Ranges are
				// disjoint, so these writes do not race.
				g.Offsets[n+1] = int64(len(ch.neighbors))
				acc.reset()
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	total := 0
	for w := range chunks {
		total += len(chunks[w].neighbors)
	}
	g.Neighbors = make([]int32, 0, total)
	g.Common = make([]int32, 0, total)
	g.ARCS = make([]float64, 0, total)
	g.EntropySum = make([]float64, 0, total)
	base := int64(0)
	for w := range chunks {
		for n := bounds[w]; n < bounds[w+1]; n++ {
			g.Offsets[n+1] += base
		}
		g.Neighbors = append(g.Neighbors, chunks[w].neighbors...)
		g.Common = append(g.Common, chunks[w].common...)
		g.ARCS = append(g.ARCS, chunks[w].arcs...)
		g.EntropySum = append(g.EntropySum, chunks[w].entropySum...)
		base += int64(len(chunks[w].neighbors))
		// Release each chunk as soon as it is stitched. The peak — final
		// arrays plus all chunks, ~2x the adjacency — is unavoidable at
		// the start of the merge, but this makes memory fall back toward
		// 1x as the merge proceeds instead of holding 2x throughout.
		chunks[w] = entryStore{}
	}
	g.Weights = make([]float64, len(g.Neighbors))
	return g, nil
}

// cutRanges splits the node space into `workers` contiguous ranges of
// roughly equal total block membership (the cost driver of per-node
// accumulation), using the block index's prefix sums. Returns workers+1
// boundaries with bounds[0] = 0 and bounds[workers] = the node count.
func cutRanges(offsets []int64, workers int) []int {
	n := len(offsets) - 1
	total := offsets[n]
	bounds := make([]int, workers+1)
	bounds[workers] = n
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		bounds[w] = sort.Search(n, func(i int) bool { return offsets[i+1] >= target })
		if bounds[w] < bounds[w-1] {
			bounds[w] = bounds[w-1]
		}
	}
	return bounds
}
