package blast

// The shard writer of a Server. A partIndex owns only the rows that
// hash onto its shard: it holds its clone of the (compact, fully
// replicated) block collection plus an appender, and materializes
// nothing else between exports. An export builds the owned-rows CSR
// from the collection, resolves every graph-global pruning input by an
// all-gather of compact per-shard aggregates over the server's
// shard.Exchange, and publishes the owned rows of what pruning retained
// — the CSR itself does not outlive the export:
//
//	agreement  received batch counts     → the batch to publish at
//	           (shard.Exchange.AgreeMin; once per due publication,
//	            before the export — see Agree)
//	round 0    owned degree vectors      → global degrees, edge count
//	           (off the builder's degree pass; the fill pass then
//	            weighs each entry as it emits it)
//	WEP        per-row weight sums       → the exact global mean
//	CEP        counting histograms       → the exact global cut
//	           (+ per-row tie counts and the taken-tie pair set when
//	            the budget splits a tie group)
//	WNP/Blast  owned threshold rows      → the global theta vector
//	CNP        owned (cut, tie) rows     → the global selection cuts
//	final      owned entry counts       → the global retained count
//
// Every aggregate merges either by ownership scatter (per-row values:
// each row has exactly one owner, so merged[u] = frames[owner(u)][u] —
// never an element-wise sum, which could disturb IEEE signed zeros) or
// by a commutative fold in fixed shard order (histograms). Every branch
// a shard takes between rounds — edge-count zero, budget resolution,
// the tie-budget case split — depends only on globally merged values,
// so all shards run the identical round sequence and the exchange's
// call-index round matching never misaligns. The agreement round keeps
// to the same rule: every shard takes one at every point where a
// publication falls due and nowhere else, only after a batch it applied
// successfully (a failed shard takes none and poisons the exchange), and
// due points coincide across shards because they are counted in applied
// profiles since the last publication, which was itself aligned — by a
// previous agreement, by a barrier the server placed at one position on
// every shard, or by the final drain of Close.
//
// The correctness contract is bit for bit: a row of a shard's snapshot
// is byte-identical to the same row of a cold IndexBlocks over the same
// collection, because the refolds above reproduce the exact reduction
// shapes (chunk order, row order, adjacency order) of the single-graph
// streaming schemes.

import (
	"context"
	"fmt"
	"slices"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/shard"
)

// partIndex is the Writer behind one shard of a Server.
// The shard worker serializes all calls, so it needs no lock of its
// own.
type partIndex struct {
	part   int
	nparts int
	kind   model.Kind
	schema *Schema
	opt    Options
	app    *blocking.Appender
	ex     *shard.Exchange
}

// newPartIndex wraps one shard's clone of the block collection. The
// clone is owned by the partIndex from here on.
func newPartIndex(c *blocking.Collection, schema *Schema, opt Options, part, nparts int, ex *shard.Exchange) *partIndex {
	return &partIndex{
		part:   part,
		nparts: nparts,
		kind:   c.Kind,
		schema: schema,
		opt:    opt,
		app:    blocking.NewAppender(c),
		ex:     ex,
	}
}

// InsertAll tokenizes and appends a batch to the shard's collection;
// ownership resolution happens wholesale at the next Export. Every
// shard of the server admits every batch (the collection is replicated;
// only adjacency is partitioned), which is what keeps the appenders' id
// assignment aligned.
func (px *partIndex) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return appendBatch(px.app, px.schema, px.kind, &px.opt, profiles), nil
}

// Agree resolves a due publication to the newest batch position every
// shard of the server has received: partitioned exports exchange
// aggregates, so all shards must export the same collection state, and
// agreeing on the minimum picks one none of them has to wait for.
func (px *partIndex) Agree(received int64) (int64, error) {
	return px.ex.AgreeMin(px.part, received)
}

// Export builds this shard's owned-rows snapshot at the current
// collection state, running the aggregate-exchange rounds described in
// the package comment. All participating shards must export
// concurrently from identical collection states; the server guarantees
// both (batches are enqueued to all shards atomically, and every
// publication happens at a position all shards share: one they agreed
// on, a server-placed barrier, or the end of the stream).
func (px *partIndex) Export(ctx context.Context) (*shard.Snapshot, error) {
	c := px.app.Collection()
	np := c.NumProfiles
	owners := ownerTable(np, px.nparts)
	owned := 0
	for _, o := range owners {
		if int(o) == px.part {
			owned++
		}
	}
	owns := func(p int32) bool { return int(owners[p]) == px.part }
	build, err := graph.StartOwnedCSR(ctx, c, owns, px.opt.Workers)
	if err != nil {
		return nil, err
	}

	// Round 0: owned degree vectors, straight off the degree pass. An
	// owned row's run is its node's complete adjacency, so run lengths
	// are the global degrees and their sum counts every edge endpoint
	// exactly once per side.
	degrees := build.Header().Degrees()
	var w shard.FrameWriter
	w.Int32s(degrees)
	if err := px.gatherInt32Scatter(&w, owners, degrees); err != nil {
		return nil, err
	}
	ne := int64(0)
	for _, d := range degrees {
		ne += int64(d)
	}
	numEdges := int(ne / 2)

	// The fill pass weighs each entry as it emits it: nothing reads the
	// co-occurrence statistics after the weights, so they are never made.
	g, err := build.Fill(ctx, px.opt.Scheme.EntryWeight(build.Header(), degrees, numEdges))
	if err != nil {
		return nil, err
	}

	keep, theta, err := px.keepPredicate(ctx, g, numEdges, owners)
	if err != nil {
		return nil, err
	}

	// The retention pass collects what it keeps: the owned CSR and its
	// weights die with this export, the rows are all that is published.
	rows := &prune.Rows{Offsets: make([]int64, np+1)}
	if keep != nil {
		if rows, err = prune.CollectOwned(ctx, g, px.opt.Workers, keep); err != nil {
			return nil, err
		}
	}

	// Final round: owned entry counts. Each retained edge sits once in
	// the row of each endpoint — twice in the global sum, whoever the
	// owners are — so the exchanged total over two is the global
	// retained-pair count.
	var mw shard.FrameWriter
	mw.Int64s([]int64{int64(len(rows.Neighbors))})
	mfs, err := px.gather(&mw)
	if err != nil {
		return nil, err
	}
	total := int64(0)
	for _, r := range mfs {
		v := r.Int64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return nil, fmt.Errorf("blast: malformed entry-count frame (%d values)", len(v))
		}
		total += v[0]
	}

	return &shard.Snapshot{
		NumProfiles:   np,
		NumEdges:      numEdges,
		RetainedPairs: int(total / 2),
		Offsets:       rows.Offsets,
		Neighbors:     rows.Neighbors,
		Weights:       rows.Weights,
		Theta:         theta,
		PartShards:    px.nparts,
		PartShard:     px.part,
		Owned:         owned,
	}, nil
}

// keepPredicate resolves the pruning scheme's global inputs through the
// exchange and returns the per-entry retention predicate (nil when the
// scheme retains nothing at this state) plus the global per-node
// threshold vector for the schemes that expose one. Every branch below
// tests only globally merged values, keeping the round sequence
// identical across shards.
func (px *partIndex) keepPredicate(ctx context.Context, g *graph.CSR, numEdges int, owners []uint8) (func(u, v int32, w float64) bool, []float64, error) {
	opt := &px.opt
	switch opt.Pruning {
	case metablocking.WEP:
		if numEdges == 0 {
			return nil, nil, nil
		}
		sums, counts, err := prune.RowWeightSums(ctx, g, opt.Workers)
		if err != nil {
			return nil, nil, err
		}
		var w shard.FrameWriter
		w.Float64s(sums)
		w.Int64s(counts)
		rs, err := px.gather(&w)
		if err != nil {
			return nil, nil, err
		}
		gsums := make([]float64, g.NumProfiles)
		gcounts := make([]int64, g.NumProfiles)
		for i, r := range rs {
			s, c := r.Float64s(), r.Int64s()
			if err := px.checkFrame(r, len(s) == g.NumProfiles && len(c) == g.NumProfiles); err != nil {
				return nil, nil, err
			}
			scatterOwned(gsums, s, owners, i)
			scatterOwned(gcounts, c, owners, i)
		}
		total, _ := prune.FoldRowSums(gsums, gcounts)
		theta := total / float64(numEdges)
		return func(_, _ int32, w float64) bool { return w >= theta }, nil, nil

	case metablocking.CEP:
		if numEdges == 0 {
			return nil, nil, nil
		}
		k := opt.K
		if k <= 0 {
			k = prune.CEPBudget(g.BlockCounts)
		}
		if k > numEdges {
			k = numEdges
		}
		if k <= 0 {
			return nil, nil, nil
		}
		cut, greater, ties, err := px.selectCutExchanged(ctx, g, k)
		if err != nil {
			return nil, nil, err
		}
		rem := int64(k - greater)
		if rem >= int64(ties) {
			return func(_, _ int32, w float64) bool { return w >= cut }, nil, nil
		}
		if rem <= 0 {
			return func(_, _ int32, w float64) bool { return w > cut }, nil, nil
		}
		taken, err := px.takenTiesExchanged(ctx, g, cut, rem, owners)
		if err != nil {
			return nil, nil, err
		}
		return func(u, v int32, w float64) bool {
			if w > cut {
				return true
			}
			if w != cut {
				return false
			}
			lo, hi := u, v
			if hi < lo {
				lo, hi = hi, lo
			}
			_, ok := slices.BinarySearchFunc(taken, model.IDPair{U: lo, V: hi}, comparePairs)
			return ok
		}, nil, nil

	case metablocking.WNP1, metablocking.WNP2:
		th, err := prune.MeanThresholds(ctx, g, opt.Workers)
		if err != nil {
			return nil, nil, err
		}
		gth, err := px.exchangeThresholds(th, owners)
		if err != nil {
			return nil, nil, err
		}
		redefined := opt.Pruning == metablocking.WNP1
		return func(u, v int32, w float64) bool {
			overU, overV := w >= gth[u], w >= gth[v]
			if redefined {
				return overU || overV
			}
			return overU && overV
		}, gth, nil

	case metablocking.BlastWNP:
		th, err := prune.BlastThresholds(ctx, g, opt.C, opt.Workers)
		if err != nil {
			return nil, nil, err
		}
		gth, err := px.exchangeThresholds(th, owners)
		if err != nil {
			return nil, nil, err
		}
		d := opt.D
		if d <= 0 {
			d = 2
		}
		return func(u, v int32, w float64) bool {
			return w >= (gth[u]+gth[v])/d
		}, gth, nil

	case metablocking.CNP1, metablocking.CNP2:
		if numEdges == 0 {
			return nil, nil, nil
		}
		k := opt.K
		if k <= 0 {
			k = prune.CNPBudget(g.BlockCounts)
		}
		if k == 0 {
			return nil, nil, nil
		}
		cut, tie, err := prune.TopKCuts(ctx, g, k, opt.Workers)
		if err != nil {
			return nil, nil, err
		}
		var w shard.FrameWriter
		w.Float64s(cut)
		w.Int32s(tie)
		rs, err := px.gather(&w)
		if err != nil {
			return nil, nil, err
		}
		gcut := make([]float64, g.NumProfiles)
		gtie := make([]int32, g.NumProfiles)
		for i, r := range rs {
			c, t := r.Float64s(), r.Int32s()
			if err := px.checkFrame(r, len(c) == g.NumProfiles && len(t) == g.NumProfiles); err != nil {
				return nil, nil, err
			}
			scatterOwned(gcut, c, owners, i)
			scatterOwned(gtie, t, owners, i)
		}
		redefined := opt.Pruning == metablocking.CNP1
		return func(u, v int32, w float64) bool {
			if redefined {
				return prune.InTopK(w, v, gcut[u], gtie[u]) || prune.InTopK(w, u, gcut[v], gtie[v])
			}
			return prune.InTopK(w, v, gcut[u], gtie[u]) && prune.InTopK(w, u, gcut[v], gtie[v])
		}, nil, nil

	default:
		return nil, nil, fmt.Errorf("blast: unknown pruning %d", int(opt.Pruning))
	}
}

// selectCutExchanged drives the CutScan refinement with shard-merged
// counting histograms: each round, every shard counts its owned rows at
// the scan's prefix/shift, the histograms fold in shard order, and one
// Step advances — at most four rounds, exactly like the local
// selection.
func (px *partIndex) selectCutExchanged(ctx context.Context, g *graph.CSR, k int) (cut float64, greater, ties int, err error) {
	cs := prune.NewCutScan(k)
	for {
		counts, kmin, kmax, err := prune.CountCutHist(ctx, g, px.opt.Workers, cs.Prefix(), cs.Shift())
		if err != nil {
			return 0, 0, 0, err
		}
		var w shard.FrameWriter
		w.Int64s(counts)
		w.Uint64s(kmin)
		w.Uint64s(kmax)
		rs, err := px.gather(&w)
		if err != nil {
			return 0, 0, 0, err
		}
		mc, mmin, mmax := prune.NewCutHist()
		for _, r := range rs {
			oc, omin, omax := r.Int64s(), r.Uint64s(), r.Uint64s()
			if err := px.checkFrame(r, len(oc) == len(mc) && len(omin) == len(mmin) && len(omax) == len(mmax)); err != nil {
				return 0, 0, 0, err
			}
			prune.MergeCutHist(mc, mmin, mmax, oc, omin, omax)
		}
		if cs.Step(mc, mmin, mmax) {
			cut, greater, ties = cs.Cut()
			return cut, greater, ties, nil
		}
	}
}

// takenTiesExchanged resolves CEP's partial tie budget: per-row tie
// counts are exchanged and prefix-summed into global tie ordinals, each
// shard collects its owned rows' within-budget ties, and the disjoint
// per-shard sets merge into THE global taken-tie set every owner marks
// against.
func (px *partIndex) takenTiesExchanged(ctx context.Context, g *graph.CSR, cut float64, rem int64, owners []uint8) ([]model.IDPair, error) {
	ties, err := prune.RowTieCounts(ctx, g, px.opt.Workers, cut)
	if err != nil {
		return nil, err
	}
	var w shard.FrameWriter
	w.Int64s(ties)
	rs, err := px.gather(&w)
	if err != nil {
		return nil, err
	}
	gties := make([]int64, g.NumProfiles)
	for i, r := range rs {
		v := r.Int64s()
		if err := px.checkFrame(r, len(v) == g.NumProfiles); err != nil {
			return nil, err
		}
		scatterOwned(gties, v, owners, i)
	}
	// tieBase[u]: the global ordinal of row u's first tie.
	tieBase := make([]int64, g.NumProfiles)
	base := int64(0)
	for u, n := range gties {
		tieBase[u] = base
		base += n
	}
	own, err := prune.CEPTakenTies(ctx, g, px.opt.Workers, cut, rem, tieBase)
	if err != nil {
		return nil, err
	}
	var tw shard.FrameWriter
	tw.Pairs(own)
	trs, err := px.gather(&tw)
	if err != nil {
		return nil, err
	}
	parts := make([][]model.IDPair, len(trs))
	for i, r := range trs {
		parts[i] = r.Pairs()
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return shard.MergePairs(parts), nil
}

// exchangeThresholds all-gathers owned per-node threshold rows and
// scatters them by ownership into the global vector.
func (px *partIndex) exchangeThresholds(th []float64, owners []uint8) ([]float64, error) {
	var w shard.FrameWriter
	w.Float64s(th)
	rs, err := px.gather(&w)
	if err != nil {
		return nil, err
	}
	gth := make([]float64, len(th))
	for i, r := range rs {
		v := r.Float64s()
		if err := px.checkFrame(r, len(v) == len(th)); err != nil {
			return nil, err
		}
		scatterOwned(gth, v, owners, i)
	}
	return gth, nil
}

// gather runs one exchange round: contribute this shard's frame, wait
// for all peers, wrap every frame in a reader.
func (px *partIndex) gather(w *shard.FrameWriter) ([]*shard.FrameReader, error) {
	frames, err := px.ex.Gather(px.part, w.Bytes())
	if err != nil {
		return nil, err
	}
	rs := make([]*shard.FrameReader, len(frames))
	for i, f := range frames {
		rs[i] = shard.NewFrameReader(f)
	}
	return rs, nil
}

// gatherInt32Scatter runs the degree round: exchange the owned degree
// vector and scatter every shard's owned rows into it in place (this
// shard's own rows are rewritten with the values they already hold).
func (px *partIndex) gatherInt32Scatter(w *shard.FrameWriter, owners []uint8, dst []int32) error {
	rs, err := px.gather(w)
	if err != nil {
		return err
	}
	for i, r := range rs {
		v := r.Int32s()
		if err := px.checkFrame(r, len(v) == len(dst)); err != nil {
			return err
		}
		scatterOwned(dst, v, owners, i)
	}
	return nil
}

// scatterOwned is the ownership-scatter merge of one exchanged per-row
// vector: the rows shard i owns are copied from its frame into the
// global vector. A row's value comes from its one owner, never from an
// element-wise sum (which could disturb IEEE signed zeros).
func scatterOwned[T any](dst, src []T, owners []uint8, i int) {
	for u := range src {
		if int(owners[u]) == i {
			dst[u] = src[u]
		}
	}
}

// checkFrame folds a reader's sticky decode error together with a
// structural expectation into one failure.
func (px *partIndex) checkFrame(r *shard.FrameReader, ok bool) error {
	if err := r.Err(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("blast: misshapen exchange frame on shard %d", px.part)
	}
	return nil
}

// ownerTable precomputes profile → owning shard (shard counts are
// capped at 256, so a byte suffices).
func ownerTable(np, nparts int) []uint8 {
	t := make([]uint8, np)
	for u := range t {
		t[u] = uint8(shard.Owner(int32(u), nparts))
	}
	return t
}

// comparePairs orders pairs canonically for the tie-set binary search.
func comparePairs(a, b model.IDPair) int {
	switch {
	case a.U < b.U:
		return -1
	case a.U > b.U:
		return 1
	case a.V < b.V:
		return -1
	case a.V > b.V:
		return 1
	default:
		return 0
	}
}
