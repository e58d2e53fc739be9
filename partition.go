package blast

// The shard writer of a Server. A partIndex owns only the rows that
// hash onto its shard: it holds its clone of the (compact, fully
// replicated) block collection plus an appender, and materializes
// nothing else between exports. An export builds the owned-rows CSR
// from the collection and publishes the owned rows of what pruning
// retained — the CSR itself does not outlive the export. The shards of
// a server are the parties of one pruning decision (prune.Parties):
// every value global to the graph is all-gathered over the server's
// shard.Exchange, one round at a time:
//
//	agreement  received batch counts     → the batch to publish at
//	           (shard.Exchange.AgreeMin; once per due publication,
//	            before the export — see Agree)
//	degrees    owned degree vectors      → global degrees, edge count
//	           (off the builder's degree pass; the fill pass then
//	            weighs each entry as it emits it)
//	decision   the pruning decision's   → its predicate and thresholds
//	           rounds (metablocking.Decide; see internal/prune's
//	            partition.go)
//	final      owned entry counts       → the global retained count
//
// A shard decides the entries of its owned rows locally once the rounds
// are done. Every branch a shard takes between rounds depends only on
// gathered values, so all shards run the identical round sequence and
// the exchange's call-index round matching never misaligns. The
// agreement round keeps to the same rule: every shard takes one at
// every point where a publication falls due and nowhere else, only
// after a batch it applied successfully (a failed shard takes none and
// poisons the exchange), and due points coincide across shards because
// they are counted in applied profiles since the last publication,
// which was itself aligned — by a previous agreement, by a barrier the
// server placed at one position on every shard, or by the final drain
// of Close.
//
// The correctness contract is bit for bit: a row of a shard's export
// is byte-identical to the same row of a cold IndexBlocks over the same
// collection, because a whole graph is just the one-party case of the
// same decision; the server joins the exports into that build's rows
// (shard.JoinOwned).

import (
	"context"

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

// Export builds this shard's export — its owned rows — at the current
// collection state, running the rounds described in the file comment.
// All participating shards must export concurrently from identical
// collection states; the server guarantees both (batches are enqueued
// to all shards atomically, and every publication happens at a position
// all shards share: one they agreed on, a server-placed barrier, or the
// end of the stream).
func (px *partIndex) Export(ctx context.Context) (*shard.Snapshot, error) {
	c := px.app.Collection()
	np := c.NumProfiles
	parties := shardParties{ex: px.ex, part: px.part, owners: make([]uint8, np)}
	for u := range parties.owners {
		parties.owners[u] = uint8(shard.Owner(int32(u), px.nparts))
	}
	owns := func(u int32) bool { return parties.Owner(u) == px.part }
	build, err := graph.StartOwnedCSR(ctx, c, owns, px.opt.Workers)
	if err != nil {
		return nil, err
	}

	// Degrees, straight off the degree pass. An owned row's run is its
	// node's complete adjacency, so run lengths are the global degrees
	// and their sum counts every edge endpoint exactly once per side.
	degrees, err := prune.GatherRows(parties, build.Header().Degrees())
	if err != nil {
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
	d, err := metablocking.Decide(ctx, g, metaConfigFromOptions(px.opt), parties)
	if err != nil {
		return nil, err
	}
	// The retention pass collects what it keeps: the owned CSR and its
	// weights die with this export, the rows are all that is published.
	rows, err := prune.CollectOwned(ctx, g, px.opt.Workers, d.Keep)
	if err != nil {
		return nil, err
	}
	// Each retained edge sits once in the row of each endpoint — twice
	// in the global sum, whoever the owners are.
	total, err := prune.GatherSum(parties, int64(len(rows.Neighbors)))
	if err != nil {
		return nil, err
	}

	return &shard.Snapshot{
		NumProfiles:   np,
		NumEdges:      numEdges,
		RetainedPairs: int(total / 2),
		Offsets:       rows.Offsets,
		Neighbors:     rows.Neighbors,
		Weights:       rows.Weights,
		Theta:         d.Theta,
	}, nil
}

// shardParties are the shards of one server as the parties of a
// pruning decision: rounds run over the server's exchange, and a row
// belongs to the shard it hashes onto (shard counts are capped at 256,
// so a byte a row holds the owner table).
type shardParties struct {
	ex     *shard.Exchange
	part   int
	owners []uint8
}

func (s shardParties) Gather(v any) ([]any, error) { return s.ex.Gather(s.part, v) }
func (s shardParties) Owner(u int32) int           { return int(s.owners[u]) }
