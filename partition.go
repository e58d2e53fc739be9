package blast

// The writer of a Server and of an Index's inserts, and its partitioned
// freeze. The writer holds one appender over one clone of the (compact)
// block collection and materializes nothing else between exports. Every
// freeze that is not a cold build is a writer export: a Server's start
// state and each of its publications, and an Index's re-freeze after
// inserts. An export is the freeze IndexBlocks runs —
// metablocking.BuildWeighted, then metablocking.FreezeCSR — built
// resident, and run by ServerOptions.Shards parties at once (an Index's
// writer has one), each over the rows that hash onto it: a party builds,
// weighs and prunes its owned rows, and only the owned rows of what
// pruning retained outlive the freeze. The parties of one freeze
// (prune.Parties) all-gather every value global to the graph over a
// fresh shard.Exchange, one round at a time:
//
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
// A party decides the entries of its owned rows locally once the rounds
// are done. Every branch a party takes between rounds depends only on
// gathered values, so all parties run the identical round sequence and
// the exchange's call-index round matching never misaligns. A failing
// party poisons its freeze's exchange, so its peers fail instead of
// waiting; the next publication runs over a fresh one.
//
// The correctness contract is bit for bit: the join of the parties'
// rows (shard.JoinOwned) is byte-identical to a cold IndexBlocks over
// the same collection, because a whole graph is just the one-party case
// of the same freeze — the one a single-party writer runs.

import (
	"context"
	"fmt"
	"sync"

	"blast/internal/blocking"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/shard"
	"blast/internal/wal"
)

// writer is the shard.Writer behind a Server, and the insert path of an
// Index. The shard serializes Journal calls, and its worker every other
// call (an Index's mutex serializes its own writer's), so it needs no
// lock of its own.
type writer struct {
	parts  int
	kind   model.Kind
	schema *Schema
	opt    Options
	app    *blocking.Appender
	log    *wal.Log // nil unless ServerOptions.Dir was set
	// failParty, when set, runs first in every party of a partitioned
	// freeze; a non-nil result fails that party. Tests set it to inject
	// a party failure before the writer's next publication.
	failParty func(part int) error
	// holdJournal, when set, runs first in every Journal call, before
	// the group closes. Tests set it to hold group commits.
	holdJournal func()
}

// newWriter wraps a clone of the block collection, frozen by parts
// parties. The clone is owned by the writer from here on.
func newWriter(c *blocking.Collection, schema *Schema, opt Options, parts int) *writer {
	return &writer{parts: parts, kind: c.Kind, schema: schema, opt: opt, app: blocking.NewAppender(c)}
}

// Journal closes a group and, on a durable server, appends it to the log
// as one record: once ids are returned the group survives a crash (to
// the fsync policy), and a group that could not be journaled is not
// admitted at all.
func (w *writer) Journal(take func() []model.Profile) error {
	if w.holdJournal != nil {
		w.holdJournal()
	}
	batch := take()
	if w.log == nil || len(batch) == 0 {
		return nil
	}
	if err := w.log.Append(wal.AppendBatch(nil, batch)); err != nil {
		return fmt.Errorf("blast: wal append: %w", err)
	}
	return nil
}

// InsertAll tokenizes a batch and appends it to the collection, in
// order, returning the assigned ids; the next Export folds it in. ctx is
// observed once, before anything mutates: tokenization is total and the
// append unconditional, so it cannot fail part-way.
func (w *writer) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ids := make([]int, len(profiles))
	for i := range profiles {
		ids[i] = int(w.app.Append(tokenizeProfile(w.schema, w.kind, &w.opt, &profiles[i])))
	}
	return ids, nil
}

// Export freezes the collection's current state into rows, built
// resident whatever Options.Storage says: over prune.Alone with one
// party, as Index.freeze does, or by w.parts party goroutines over one
// fresh exchange, whose rows are then joined.
func (w *writer) Export(ctx context.Context) (*shard.Snapshot, error) {
	c := w.app.Collection()
	cfg := metaConfigFromOptions(w.opt)
	cfg.Spill = nil
	if w.parts == 1 {
		return freezeParty(ctx, c, cfg, prune.Alone, nil)
	}
	ex, owners := shard.NewExchange(w.parts), make([]uint8, c.NumProfiles)
	for u := range owners {
		owners[u] = uint8(shard.Owner(int32(u), w.parts))
	}
	rows, errs := make([]*shard.Snapshot, w.parts), make([]error, w.parts)
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func(p partyOf) {
			defer wg.Done()
			var err error
			if w.failParty != nil {
				err = w.failParty(p.part)
			}
			if err == nil {
				rows[p.part], err = freezeParty(ctx, c, cfg, p, func(u int32) bool { return p.Owner(u) == p.part })
			}
			if err != nil {
				ex.Poison(err)
			}
			errs[p.part] = err
		}(partyOf{ex: ex, part: i, owners: owners})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shard.JoinOwned(rows)
}

// freezeParty is one party's freeze of the rows owns selects (nil:
// every row). Built resident, its graph needs no Close and dies here.
func freezeParty(ctx context.Context, c *blocking.Collection, cfg metablocking.Config, parties prune.Parties, owns func(int32) bool) (*shard.Snapshot, error) {
	g, _, err := metablocking.BuildWeighted(ctx, c, cfg, parties, owns)
	if err != nil {
		return nil, err
	}
	return metablocking.FreezeCSR(ctx, g, cfg, parties)
}

// partyOf is one party of a partitioned freeze as a prune.Parties:
// rounds run over the freeze's exchange, and a row belongs to the party
// it hashes onto (shard counts are capped at 256, so a byte a row holds
// the owner table).
type partyOf struct {
	ex     *shard.Exchange
	part   int
	owners []uint8
}

func (p partyOf) Gather(v any) ([]any, error) { return p.ex.Gather(p.part, v) }
func (p partyOf) Owner(u int32) int           { return int(p.owners[u]) }
