package blast

// The shard writer of a Server. A partIndex owns only the rows that
// hash onto its shard: it holds its clone of the (compact, fully
// replicated) block collection plus an appender, and materializes
// nothing else between exports. An export is the freeze an Index runs
// — metablocking.BuildWeighted, then metablocking.FreezeCSR — over the
// owned rows: the owned-rows CSR is built, weighed and pruned, and only
// the owned rows of what pruning retained outlive the export. The
// shards of a server are the parties of that one freeze
// (prune.Parties): every value global to the graph is all-gathered over
// the server's shard.Exchange, one round at a time:
//
//	agreement  received batch counts     → the batch to publish at
//	           (shard.Exchange.AgreeMin; once per due publication,
//	            before the export — see Agree)
//	degrees    owned degree vectors      → global degrees, edge count
//	           (BuildWeighted, off the degree pass; the fill pass then
//	            weighs each entry as it emits it)
//	decision   the pruning decision's   → its predicate and thresholds
//	           rounds (metablocking.Decide; see internal/prune's
//	            partition.go)
//	counts     owned entry and          → the global edge and
//	           retained-entry counts       retained counts
//	           (FreezeCSR; one round)
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
// same freeze; the server joins the exports into that build's rows
// (shard.JoinOwned).

import (
	"context"

	"blast/internal/blocking"
	"blast/internal/metablocking"
	"blast/internal/model"
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
// collection state: the freeze an Index runs, over the shard's parties.
// All participating shards must export concurrently from identical
// collection states; the server guarantees both (batches are enqueued
// to all shards atomically, and every publication happens at a position
// all shards share: one they agreed on, a server-placed barrier, or the
// end of the stream).
func (px *partIndex) Export(ctx context.Context) (*shard.Snapshot, error) {
	c := px.app.Collection()
	parties := shardParties{ex: px.ex, part: px.part, owners: make([]uint8, c.NumProfiles)}
	for u := range parties.owners {
		parties.owners[u] = uint8(shard.Owner(int32(u), px.nparts))
	}
	owns := func(u int32) bool { return parties.Owner(u) == px.part }
	cfg := metaConfigFromOptions(px.opt)
	cfg.Spill = nil
	// Built resident, the owned graph needs no Close and dies with this
	// export: the rows are all that is published.
	g, _, err := metablocking.BuildWeighted(ctx, c, cfg, parties, owns)
	if err != nil {
		return nil, err
	}
	return metablocking.FreezeCSR(ctx, g, cfg, parties)
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
