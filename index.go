package blast

// The candidate-serving Index: the blocking-and-filtering literature
// frames blocking as an index you build once and probe many times, and
// BLAST's pruning thresholds are node-local (theta_i = M_i/c), so the
// weighted, pruned blocking graph freezes naturally into a per-profile
// lookup structure. Index is the online counterpart of the batch
// pipeline — Candidates answers "who should profile i be compared
// against?" in O(degree(i)) without touching any other node's state.
//
// What pruning keeps is a sliver of the blocking graph (a third of a
// percent of the edges under BLAST's defaults), and no read ever needs
// a pruned entry, so the frozen form of an index is the retained rows
// and nothing else: a shard.Snapshot, collected where the pruning pass
// makes its decisions. The blocking graph itself — resident or spilled
// to segment files — lives only as long as the build. There is one
// freeze (metablocking.BuildWeighted, then metablocking.FreezeCSR): an
// index runs it over the whole graph, each party of a Server's
// publication over the rows it owns (partition.go).
//
// That is an index's only form. InsertAll appends profiles to the live
// block collection through a one-party writer (partition.go) and marks
// the rows stale; the next read re-freezes them over the grown
// collection by that writer's export, the freeze IndexBlocks runs, built
// resident. A finer-grained refresh would not pay under BLAST's
// weighting: chi-squared depends on |B| (paper §3.3.1), so a new block
// moves every weight. The contract —
// after any insert sequence, Pairs(), Candidates(i) and Threshold(i)
// are byte-identical to a cold IndexBlocks over the live collection —
// holds by construction. Cleaning is frozen: Block Purging and Filtering
// decisions are never revisited for streamed profiles.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blast/internal/blocking"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/shard"
)

// Candidate is one candidate comparison served by Index.Candidates (and
// by Server.Candidates): a co-candidate profile id and the BLAST edge
// weight that retained it. It aliases the internal serving type so index
// and snapshot lookups share one representation.
type Candidate = shard.Candidate

// IndexStats summarizes the insert history of an Index.
type IndexStats struct {
	// Inserts is the number of profiles inserted since construction.
	Inserts int
	// LocalizedBatches is always zero: an index has no localized refresh
	// path. The field remains for callers that read it.
	LocalizedBatches int
	// RebuiltBatches counts insert batches folded into the rows by a
	// re-freeze.
	RebuiltBatches int
	// Compactions counts re-freezes: reads that found inserts pending.
	Compactions int
	// PendingKeys is the number of streamed blocking keys still waiting
	// for their first valid comparison before forming a block.
	PendingKeys int
}

// Index is the queryable form of a completed pipeline run: the cleaned
// block collection plus the rows of what pruning retained — per
// profile, the co-candidate ids and the weights that retained them, and
// the per-node thresholds — at 24 bytes a retained pair and 16 a
// profile, whatever the size of the blocking graph they were pruned
// from. InsertAll appends to the collection through the index's
// writer; the next read re-freezes the rows by the writer's export. It
// is safe for concurrent use:
// readers see either the state before or after a whole insert batch,
// never a partial one.
type Index struct {
	mu         sync.RWMutex
	collection *blocking.Collection
	schema     *Schema
	opt        Options
	// spillBytes and pageLoads are what the build that last froze the
	// rows wrote to its segment files and read back before deleting them.
	spillBytes, pageLoads int64

	// rows is what every read serves from; nil while inserts are pending.
	// A snapshot is immutable, so a reader holding one needs no lock.
	rows *shard.Snapshot
	// w appends to the collection and re-freezes it; nil until the first
	// InsertAll, while the collection is still the Blocks artifact's.
	w *writer
	// pending counts the insert batches rows does not cover.
	pending int
	stats   IndexStats
}

// BuildIndex runs the full pipeline on the dataset and freezes the
// outcome into a candidate-serving Index: InduceSchema, Block, then
// IndexBlocks.
//
//blast:allow deadapi -- ExampleIndex_Candidates documents it, and the loader type-checks no _test.go file
func (p *Pipeline) BuildIndex(ctx context.Context, ds *model.Dataset) (*Index, error) {
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		return nil, err
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		return nil, err
	}
	return p.IndexBlocks(ctx, blocks)
}

// IndexBlocks freezes a Blocks artifact into an Index: the CSR blocking
// graph is built and weighted exactly as MetaBlock does it
// (metablocking.BuildWeighted), and the configured pruning's retention
// pass collects each retained comparison with its weight into the rows
// the index serves from (metablocking.FreezeCSR) — by the same decision
// MetaBlock prunes with, so Pairs is byte-identical to MetaBlock's. The graph
// ends with the build: a resident one is garbage on return, a spilled
// one (a positive Options.MemoryBudget) has had its segment files
// deleted.
func (p *Pipeline) IndexBlocks(ctx context.Context, blocks *Blocks) (*Index, error) {
	if blocks == nil || blocks.Collection == nil {
		return nil, errors.New("blast: IndexBlocks requires a non-nil Blocks artifact")
	}
	t0 := time.Now()
	c := blocks.Collection
	ix := &Index{collection: c, schema: blocks.Schema, opt: p.opt}
	if err := ix.freeze(ctx); err != nil {
		return nil, err
	}
	p.opt.progress("index", time.Since(t0))
	return ix, nil
}

// freeze builds the rows over the index's collection, over the whole
// graph (prune.Alone): IndexBlocks' build, the one Index build that
// honors Options.MemoryBudget. Over a spilled graph every pass reads through
// page cursors and fails closed on the graph's sticky read error, so no
// row is ever collected from a zeroed run; whatever the outcome, the
// segment files end here. On error the index is unchanged.
func (ix *Index) freeze(ctx context.Context) error {
	cfg := metaConfigFromOptions(ix.opt)
	csr, _, err := metablocking.BuildWeighted(ctx, ix.collection, cfg, prune.Alone, nil)
	if err != nil {
		return err
	}
	rows, err := metablocking.FreezeCSR(ctx, csr, cfg, prune.Alone)
	spillBytes, pageLoads := csr.SpillBytes(), csr.PageLoads()
	if err := csr.CloseAfter(err); err != nil {
		return err
	}
	ix.spillBytes, ix.pageLoads = spillBytes, pageLoads
	ix.rows = rows
	return nil
}

// frozen returns the rows every read serves from, first folding the
// pending insert batches into fresh rows when there are any: the
// writer's export, built resident whatever Options.MemoryBudget says, so
// under a context that never cancels the fold cannot fail.
func (ix *Index) frozen() *shard.Snapshot {
	ix.mu.RLock()
	rows := ix.rows
	ix.mu.RUnlock()
	if rows != nil {
		return rows
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.rows == nil {
		rows, err := ix.w.Export(context.Background())
		if err != nil {
			panic(fmt.Sprintf("blast: resident re-freeze failed without cancellation: %v", err))
		}
		ix.rows, ix.spillBytes, ix.pageLoads = rows, 0, 0
		ix.stats.RebuiltBatches += ix.pending
		ix.stats.Compactions++
		ix.pending = 0
	}
	return ix.rows
}

// NumProfiles returns the number of profiles the index covers, including
// inserted ones.
func (ix *Index) NumProfiles() int { return ix.frozen().NumProfiles }

// NumEdges returns the number of distinct comparisons of the underlying
// blocking graph (before pruning).
func (ix *Index) NumEdges() int { return ix.frozen().NumEdges }

// NumRetained returns the number of comparisons the pruning retained —
// the length of Pairs.
func (ix *Index) NumRetained() int { return ix.frozen().RetainedPairs }

// Schema returns the Phase 1 artifact the index was blocked under (nil
// for a schema-agnostic index).
//
//blast:allow deadapi -- with Blocks, what a caller outside the package needs to hold the index to a cold IndexBlocks, as TestStreamedInsertsMatchColdRebuild does
func (ix *Index) Schema() *Schema { return ix.schema }

// Blocks returns the block collection backing the index. Before the
// first InsertAll this is the collection of the Blocks artifact the
// index was built from; the first InsertAll replaces it with a private
// clone that subsequent inserts extend (the artifact is never mutated).
// The returned collection must not be modified.
//
//blast:allow deadapi -- with Schema, what a caller outside the package needs to hold the index to a cold IndexBlocks, as TestStreamedInsertsMatchColdRebuild does
func (ix *Index) Blocks() *blocking.Collection {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.collection
}

// Stats returns the insert counters of the index.
func (ix *Index) Stats() IndexStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.stats
	if ix.w != nil {
		st.PendingKeys = ix.w.app.PendingKeys()
	}
	return st
}

// Threshold returns theta_i, the node-local pruning threshold of a
// profile, for the threshold-based schemes (BlastWNP, WNP1, WNP2); 0 for
// profiles without edges, out-of-range ids, or schemes without per-node
// thresholds.
func (ix *Index) Threshold(profile int) float64 { return ix.frozen().Threshold(profile) }

// Candidates returns the retained candidate comparisons of one profile,
// ordered by descending weight (ties by ascending id). The result is
// freshly allocated and never nil; profiles without retained comparisons
// — including out-of-range ids, which are answered with an empty slice
// rather than a panic — yield a non-nil empty slice. Use
// AppendCandidates to amortize allocations in a serving loop.
func (ix *Index) Candidates(profile int) []Candidate {
	return ix.AppendCandidates(make([]Candidate, 0, 4), profile)
}

// AppendCandidates appends the retained candidate comparisons of one
// profile to buf and returns the extended slice, ordering the appended
// portion by descending weight (ties by ascending id): a copy and a
// sort of the profile's row, O(candidates). Out-of-range profiles
// append nothing. No allocation occurs when buf has capacity.
func (ix *Index) AppendCandidates(buf []Candidate, profile int) []Candidate {
	return ix.frozen().AppendCandidates(buf, profile)
}

// Pairs returns the full batch output of the index: every retained
// comparison in canonical order, byte-identical to the Pairs of
// MetaBlock under the same options (and, after inserts, to a cold
// IndexBlocks over the live collection). The slice is freshly allocated
// and owned by the caller: one canonical walk of the rows.
func (ix *Index) Pairs() []model.IDPair {
	// The walk only fails on cancellation, which Background never does.
	pairs, _ := ix.frozen().Pairs(context.Background())
	return pairs
}

// InsertAll adds a batch of profiles and returns their assigned global
// ids in order. ctx is observed once, before anything mutates: the batch
// is then tokenized against the frozen schema (attributes unknown to the
// schema are not indexed) and appended to the live collection whole,
// which cannot fail part-way. For clean-clean indexes the profiles join
// E2 — streaming new entities against a fixed reference collection;
// dirty indexes have a single source. The caller's Dataset and Blocks
// artifacts are never mutated (the first InsertAll clones the
// collection). The rows go stale, and the next read re-freezes them over
// every batch appended since the last one — a build of the whole index
// — so append what you can before reading.
func (ix *Index) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	if len(profiles) == 0 {
		return nil, ctx.Err()
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ix.w == nil {
		ix.collection = ix.collection.Clone()
		ix.w = newWriter(ix.collection, ix.schema, ix.opt, 1)
	}
	ids, err := ix.w.InsertAll(ctx, profiles)
	if err != nil {
		return nil, err
	}
	ix.rows = nil
	ix.pending++
	ix.stats.Inserts += len(ids)
	return ids, nil
}

// tokenizeProfile tokenizes a profile against the frozen schema exactly
// as Phase 2 blocking would: the value transform extracts terms and the
// schema's key function qualifies them. A key may repeat; the Appender
// de-duplicates, and which copy it keeps cannot matter, since a key
// embeds its attribute cluster and carries that cluster's entropy (1
// for TokenKey).
func tokenizeProfile(schema *Schema, kind model.Kind, opt *Options, p *model.Profile) []blocking.KeyEntropy {
	key := schema.keyFunc()
	source := 0
	if kind == model.CleanClean {
		source = 1 // streamed profiles join E2
	}
	var out []blocking.KeyEntropy
	for _, pair := range p.Pairs {
		for _, tok := range opt.Transform.Terms(pair.Value) {
			if k, h, ok := key(source, pair.Name, tok); ok {
				out = append(out, blocking.KeyEntropy{Key: k, Entropy: h})
			}
		}
	}
	return out
}
