// Package graph builds the blocking graph of graph-based meta-blocking
// (Section 2.2 of the paper): nodes are entity profiles, and an edge
// connects two profiles that co-occur in at least one block. Each edge
// carries the co-occurrence statistics every weighting scheme needs —
// |B_uv|, ARCS mass, and the entropy sum that BLAST's h(B_uv) term
// averages — while per-node block counts |B_i| and the block-collection
// totals live on the graph.
package graph

import (
	"context"
	"errors"
	"math/bits"
	"runtime"
	"sort"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/par"
)

// CSR is the node-centric (compressed sparse row) representation of the
// blocking graph: for every profile, a neighbor-sorted adjacency run in
// flat parallel arrays. Each undirected edge (u, v) appears twice — once
// in u's run and once in v's — so node-local computations (the theta_i
// thresholds of Section 3.3.2, per-node top-k) never consult anything
// beyond a node's own run.
//
// The builder (OwnedBuild; BuildOwnedCSR and its wrappers run both of
// its passes) accumulates each node's run independently from the block
// index with an O(|profiles|) scratch accumulator, so peak allocation
// is the output adjacency itself — no hash table over the pairs, no
// per-edge records, no sort. The streaming pruning schemes (package
// prune) consume this form directly.
type CSR struct {
	// NumProfiles is the number of nodes (profiles of the dataset,
	// whether or not they have edges).
	NumProfiles int
	// Offsets indexes the entry arrays: node i's adjacency run occupies
	// positions [Offsets[i], Offsets[i+1]).
	Offsets []int64
	// Neighbors holds the neighbor profile id of every entry. Within a
	// node's run entries are sorted by ascending neighbor id.
	Neighbors []int32
	// Common (|B_uv|), ARCS (sum over the shared blocks of 1/||b||) and
	// EntropySum (sum of their entropies h(b); h(B_uv) = EntropySum /
	// Common) are the co-occurrence accumulators, per entry (both
	// entries of an undirected edge carry identical values). They are
	// only needed to compute Weights; ReleaseStats drops them once
	// weighting is done, and a build that weighs as it fills
	// (OwnedBuild.Fill given an EntryWeight) never makes them.
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
	// run accessors (Run, Reader, Canonical*) so both backings serve the
	// identical bytes.
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

// Degrees returns the run length of every row as a fresh vector. Over a
// full graph these are the node degrees; over an owned-rows graph the
// unowned rows read 0 until the shards exchange theirs. It needs only
// Offsets, so it also serves the header of a build in progress.
func (g *CSR) Degrees() []int32 {
	degrees := make([]int32, g.NumProfiles)
	for u := range degrees {
		degrees[u] = int32(g.Offsets[u+1] - g.Offsets[u])
	}
	return degrees
}

// Run returns node u's adjacency run: its neighbor ids and, once a
// weighting scheme has run, the matching per-entry weights (nil
// before). Entry i of the run sits at global position Offsets[u]+i in
// the entry arrays. The slices alias the graph's backing store — a
// resident sub-slice or a cached page — and must not be mutated or
// retained across other graph operations. Run is the random-access
// read of one row: on a spilled graph it goes through the shared page
// cache. Passes that sweep runs in order — everything the product does
// with a spilled graph — read through a cursor of their own instead
// (Reader), which serves the identical bytes without the cache.
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

// csrCancelCheckEvery is the granularity at which the CSR builders and
// ctx-aware iterators poll for cancellation: every so many nodes on the
// outer walk AND every so many entries inside a single adjacency run,
// so one hub node with a multi-million-entry run cannot delay
// cancellation arbitrarily (the same edge-segment contract the chunked
// pruning passes honor).
const csrCancelCheckEvery = 1024

// Canonical invokes fn for every canonical (u < v) entry in ascending
// (u, v) order — one visit per edge — passing the entry's position p
// into the entry arrays.
func (g *CSR) Canonical(fn func(u, v int32, p int64)) {
	_ = g.CanonicalCtx(context.Background(), fn)
}

// CanonicalCtx is Canonical with cooperative cancellation: it polls ctx
// every few thousand nodes and at edge-segment granularity inside each
// adjacency run, stopping early with ctx.Err(). Entries already visited
// have been passed to fn; callers must discard partial results on
// error. Over a spilled graph it reads through a private page cursor
// and fails closed: it refuses a graph whose sticky error is set and
// returns one raised by its own page loads.
func (g *CSR) CanonicalCtx(ctx context.Context, fn func(u, v int32, p int64)) error {
	if err := g.Err(); err != nil {
		return err
	}
	runs := g.Reader()
	budget := int64(csrCancelCheckEvery)
	for u := 0; u < g.NumProfiles; u++ {
		if u%csrCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		base, end := g.Offsets[u], g.Offsets[u+1]
		nbr := runs.Neighbors(u)
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
	return g.Err()
}

// EntryWeight computes the weight of one adjacency entry — row u's
// entry for neighbor v — from the edge's co-occurrence statistics. The
// weighting kernel calls it once per entry, from several goroutines and
// in no particular order, so it must be a pure function of its
// arguments and of state nobody writes meanwhile; and it must treat
// (u, v) and (v, u) alike, since the two entries of an edge are weighed
// independently and have to come out bit-identical. They can: both
// carry bit-identical statistics, each accumulated over the shared
// blocks in ascending block order.
type EntryWeight func(u, v, common int32, arcs, entropySum float64) float64

// WeighEntries is the one weighting kernel: it sets the weight of every
// adjacency entry to fn of the entry, on `workers` goroutines (<= 0 =
// GOMAXPROCS). A resident graph — full or owned-rows — is cut into row
// ranges of equal entry mass and written in place; a spilled graph is
// weighed page by page into a new weights segment (see weighSpilled).
// Every entry is computed on its own, so the weights are bit-identical
// at every worker count and in either residency. ctx is polled every
// csrCancelCheckEvery entries; all workers have exited when an error is
// returned, and the weights of a cancelled resident pass are partial —
// callers must discard the graph's weights on error.
func (g *CSR) WeighEntries(ctx context.Context, workers int, fn EntryWeight) error {
	if err := g.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.pages != nil {
		return g.weighSpilled(ctx, workers, fn)
	}
	if g.Common == nil && g.NumEntries() > 0 {
		return errors.New("graph: weighting a CSR whose statistics were released")
	}
	bounds := cutRanges(g.Offsets, workers)
	return par.Do(workers, func(w int) error {
		return g.weighRows(ctx, bounds[w], bounds[w+1], 0, g.Neighbors, g.Common, g.ARCS, g.EntropySum, g.Weights, fn)
	})
}

// weighRows weighs the entries of rows [lo, hi) out of arrays whose
// element 0 is entry `base` of the graph — the whole resident arrays or
// one decoded page.
func (g *CSR) weighRows(ctx context.Context, lo, hi int, base int64, nbr, common []int32, arcs, ent, out []float64, fn EntryWeight) error {
	budget := int64(0)
	for u := lo; u < hi; u++ {
		for p, end := g.Offsets[u]-base, g.Offsets[u+1]-base; p < end; {
			if budget == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				budget = csrCancelCheckEvery
			}
			seg := min(end-p, budget)
			for stop := p + seg; p < stop; p++ {
				out[p] = fn(int32(u), nbr[p], common[p], arcs[p], ent[p])
			}
			budget -= seg
		}
	}
	return nil
}

// newCSRHeader fills in the collection-level statistics shared by the
// builders; |B_i| is read off the profile → blocks index they walk.
func newCSRHeader(c *blocking.Collection, ix *blocking.Inverse) *CSR {
	g := &CSR{
		NumProfiles:      c.NumProfiles,
		Offsets:          make([]int64, c.NumProfiles+1),
		BlockCounts:      make([]int32, c.NumProfiles),
		TotalBlocks:      c.Len(),
		TotalComparisons: c.AggregateCardinality(),
	}
	for p := range g.BlockCounts {
		g.BlockCounts[p] = int32(len(ix.Of(int32(p))))
	}
	return g
}

// blockInverses precomputes 1/||b|| per block (0 for blocks that entail
// no comparisons, which accumulation then skips).
func blockInverses(c *blocking.Collection) []float64 {
	inv := make([]float64, c.Len())
	for i := range inv {
		if cmp := c.Comparisons(i); cmp > 0 {
			inv[i] = 1 / float64(cmp)
		}
	}
	return inv
}

// rowAcc is the reusable sparse accumulator of one node's adjacency:
// dense statistics indexed by neighbor id plus a three-level bitmap of
// the neighbors met — bit j of met[0], and in each level above one bit
// per non-zero word of the level below. Draining walks the set bits
// from the top, so a run comes out in ascending neighbor order without
// a sort and in O(degree) however large the collection (the top level
// has one word per 2^18 profiles). The arrays are O(NumProfiles) but
// are allocated once per builder worker and cleared as each node is
// drained.
type rowAcc struct {
	common  []int32
	arcs    []float64
	entropy []float64
	met     [3][]uint64
}

func newRowAcc(n int) *rowAcc {
	a := &rowAcc{
		common:  make([]int32, n),
		arcs:    make([]float64, n),
		entropy: make([]float64, n),
	}
	for l := range a.met {
		n = (n + 63) / 64
		a.met[l] = make([]uint64, n)
	}
	return a
}

// walk visits every comparison the node takes part in, in ascending
// block order, and returns how many it visited (an upper bound of the
// node's degree). It always marks the neighbors met; with stats it also
// accumulates their co-occurrence statistics, each per-edge
// floating-point sum in ascending block order — the order the edge-list
// reference adds in, which is what makes the two bit-identical. A
// block's members are the shared base's run plus a writer's appended run.
func (a *rowAcc) walk(c *blocking.Collection, inv []float64, ix *blocking.Inverse, node int32, stats bool) (visited int) {
	// Clean-clean: only cross-source comparisons are valid. Dirty:
	// everyone else in the block.
	side := 0
	if c.Kind == model.CleanClean && int(node) < c.Split {
		side = 1
	}
	for _, bi := range ix.Of(node) {
		w := inv[bi]
		if w == 0 {
			continue
		}
		h := c.Entropy(int(bi))
		run, appended := c.Members(int(bi), side)
		for _, others := range [2][]int32{run, appended} {
			visited += len(others)
			for _, j := range others {
				if j == node {
					continue
				}
				a.met[0][j>>6] |= 1 << (j & 63)
				a.met[1][j>>12] |= 1 << (j >> 6 & 63)
				a.met[2][j>>18] |= 1 << (j >> 12 & 63)
				if stats {
					a.common[j]++
					a.arcs[j] += w
					a.entropy[j] += h
				}
			}
		}
	}
	return visited
}

// drain passes every non-zero word of the neighbor bitmap to visit, in
// ascending order, and clears all three levels.
func (a *rowAcc) drain(visit func(w int, word uint64)) {
	for tw, top := range a.met[2] {
		if top == 0 {
			continue
		}
		a.met[2][tw] = 0
		for ; top != 0; top &= top - 1 {
			mw := tw<<6 + bits.TrailingZeros64(top)
			mid := a.met[1][mw]
			a.met[1][mw] = 0
			for ; mid != 0; mid &= mid - 1 {
				w := mw<<6 + bits.TrailingZeros64(mid)
				visit(w, a.met[0][w])
				a.met[0][w] = 0
			}
		}
	}
}

// degree counts and clears the marked neighbors.
func (a *rowAcc) degree() (deg int) {
	a.drain(func(_ int, word uint64) { deg += bits.OnesCount64(word) })
	return deg
}

// emit writes the accumulated run to the front of the destination
// slices in ascending neighbor order, clears the accumulator and
// returns the run's length. It is the statistics sink of the fill pass.
func (a *rowAcc) emit(nbr, common []int32, arcs, entropy []float64) (k int) {
	a.drain(func(w int, word uint64) {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			nbr[k], common[k], arcs[k], entropy[k] = int32(j), a.common[j], a.arcs[j], a.entropy[j]
			a.common[j], a.arcs[j], a.entropy[j] = 0, 0, 0
			k++
		}
	})
	return k
}

// emitWeighed is the weighing sink of the fill pass: the same drain, but
// each entry's statistics go straight from the accumulator into weigh
// and only the neighbor id and the weight are written out — the
// statistics of row u never exist outside the accumulator.
func (a *rowAcc) emitWeighed(u int32, nbr []int32, wts []float64, weigh EntryWeight) (k int) {
	a.drain(func(w int, word uint64) {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			nbr[k], wts[k] = int32(j), weigh(u, int32(j), a.common[j], a.arcs[j], a.entropy[j])
			a.common[j], a.arcs[j], a.entropy[j] = 0, 0, 0
			k++
		}
	})
	return k
}

// buildPollBudget paces the builders' cancellation polls: a node costs
// buildPollBudget/csrCancelCheckEvery plus the comparisons its walk
// visited, and ctx is polled each time the budget runs out — every
// csrCancelCheckEvery nodes at the latest, sooner across hub nodes.
const buildPollBudget = 1 << 20

// OwnedBuild is the one resident CSR builder, in its two passes.
//
// StartOwnedCSR runs the degree pass: every owned node's neighbors are
// marked and counted, and the prefix sums become Offsets — from which
// the caller reads the degree vector and the edge count before a single
// entry exists. Fill runs the fill pass: every entry array is allocated
// once at its exact size and each node is accumulated again and emitted
// in place, into one of two sinks. With no EntryWeight the run lands in
// Neighbors + Common/ARCS/EntropySum (Weights allocated, zero): the
// statistics-keeping graph that sweeps, grids and mutable indexes weigh
// and re-weigh. With one, each entry is weighed as it is emitted and
// only Neighbors + Weights are made — 12 instead of 32 bytes an entry,
// no second pass over them — for callers that would release the
// statistics straight after weighting anyway (a partitioned shard's
// export, a cold Run or IndexBlocks). The builder is split, not handed a
// callback up front, because a weight may need what only the finished
// degree pass knows: EJS reads the degrees and the edge count, which a
// partitioned shard must first exchange with its peers.
//
// Nodes are cut into contiguous ranges of roughly equal block-membership
// mass, one per worker. A node is computed by one worker into its own
// slice of the output, so the result is byte-identical at every worker
// count, and the weighing sink writes bit for bit what the statistics
// sink followed by WeighEntries would. Both passes poll ctx (see
// buildPollBudget); a cancelled pass returns ctx.Err() after the join
// and no graph.
type OwnedBuild struct {
	c       *blocking.Collection
	owns    func(int32) bool
	workers int
	g       *CSR
	ix      *blocking.Inverse
	inv     []float64
	bounds  []int
	accs    []*rowAcc
}

// StartOwnedCSR runs the degree pass of a build over the rows owns
// selects (nil = every row) on `workers` goroutines (<= 0 = GOMAXPROCS).
func StartOwnedCSR(ctx context.Context, c *blocking.Collection, owns func(int32) bool, workers int) (*OwnedBuild, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c.NumProfiles < 2*workers {
		workers = 1
	}
	ix := blocking.NewInverse(c)
	b := &OwnedBuild{c: c, owns: owns, workers: workers, g: newCSRHeader(c, ix), ix: ix, inv: blockInverses(c)}
	b.bounds = cutRanges(ix.Offsets, workers)
	b.accs = make([]*rowAcc, workers)
	offsets := b.g.Offsets
	err := b.pass(ctx, func(acc *rowAcc, n int32) int {
		visited := acc.walk(c, b.inv, b.ix, n, false)
		offsets[n+1] = int64(acc.degree())
		return visited
	})
	if err != nil {
		return nil, err
	}
	for n := 0; n < c.NumProfiles; n++ {
		offsets[n+1] += offsets[n]
	}
	return b, nil
}

// pass runs visit over every owned node, each worker on its range.
func (b *OwnedBuild) pass(ctx context.Context, visit func(acc *rowAcc, n int32) (visited int)) error {
	_ = par.Do(b.workers, func(w int) error {
		if b.accs[w] == nil {
			b.accs[w] = newRowAcc(b.c.NumProfiles)
		}
		budget := 0
		for n := b.bounds[w]; n < b.bounds[w+1]; n++ {
			if budget <= 0 {
				if ctx.Err() != nil {
					return nil
				}
				budget = buildPollBudget
			}
			budget -= buildPollBudget / csrCancelCheckEvery
			if b.owns == nil || b.owns(int32(n)) {
				budget -= visit(b.accs[w], int32(n))
			}
		}
		return nil
	})
	return ctx.Err()
}

// Header returns the graph under construction as the degree pass left
// it: the collection-level statistics and the final Offsets, no entry
// arrays yet. Read-only; Fill completes and returns the same graph.
func (b *OwnedBuild) Header() *CSR { return b.g }

// Fill runs the fill pass and returns the finished graph: statistics
// kept when weigh is nil, weighed on emission (Common, ARCS and
// EntropySum nil, as after ReleaseStats) when it is not. weigh is called
// from several goroutines under the EntryWeight contract. A build is
// filled once.
func (b *OwnedBuild) Fill(ctx context.Context, weigh EntryWeight) (*CSR, error) {
	g, c := b.g, b.c
	entries := g.Offsets[c.NumProfiles]
	g.Neighbors = make([]int32, entries)
	g.Weights = make([]float64, entries)
	if weigh == nil {
		g.Common = make([]int32, entries)
		g.ARCS = make([]float64, entries)
		g.EntropySum = make([]float64, entries)
	}
	err := b.pass(ctx, func(acc *rowAcc, n int32) int {
		visited := acc.walk(c, b.inv, b.ix, n, true)
		lo, hi := g.Offsets[n], g.Offsets[n+1]
		if weigh == nil {
			acc.emit(g.Neighbors[lo:hi], g.Common[lo:hi], g.ARCS[lo:hi], g.EntropySum[lo:hi])
		} else {
			acc.emitWeighed(n, g.Neighbors[lo:hi], g.Weights[lo:hi], weigh)
		}
		return visited
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// BuildOwnedCSR is the statistics-keeping build: the degree pass plus
// the fill pass into the statistics sink; BuildCSR is workers = 1 with
// owns = nil (every row). Offsets spans every profile of the
// collection, but adjacency runs are built only for the rows owns
// selects; every other row is an empty run. That is the build primitive
// of partitioned sharding: each shard materializes its owned rows from
// the shared block collection, bit-identical to the same rows of a full
// build because a node's run depends on nothing but the collection. The
// header statistics (BlockCounts, TotalBlocks, TotalComparisons) stay
// global; NumEdges() of an owned build counts owned entries over two,
// NOT the global edges (shards exchange owned degrees for those).
func BuildOwnedCSR(ctx context.Context, c *blocking.Collection, owns func(int32) bool, workers int) (*CSR, error) {
	b, err := StartOwnedCSR(ctx, c, owns, workers)
	if err != nil {
		return nil, err
	}
	return b.Fill(ctx, nil)
}

// BuildCSR constructs the node-centric blocking graph of a block
// collection. It visits each block twice per member profile (to size
// the runs, then to fill them), so the cost is proportional to ||B||,
// and memory is the output adjacency plus an O(NumProfiles)
// accumulator.
func BuildCSR(c *blocking.Collection) *CSR {
	g, _ := BuildCSRCtx(context.Background(), c)
	return g
}

// BuildCSRCtx is BuildCSR with cooperative cancellation.
func BuildCSRCtx(ctx context.Context, c *blocking.Collection) (*CSR, error) {
	return BuildOwnedCSR(ctx, c, nil, 1)
}

// BuildCSRParallelCtx constructs the same graph as BuildCSR, byte for
// byte, using workers goroutines (0 = GOMAXPROCS), with cooperative
// cancellation.
func BuildCSRParallelCtx(ctx context.Context, c *blocking.Collection, workers int) (*CSR, error) {
	return BuildOwnedCSR(ctx, c, nil, workers)
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
