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
// to segment files — lives only as long as the build.
//
// Incremental meta-blocking builds on exactly that node-locality: a new
// profile only dirties the adjacency runs of its co-blocked neighbors,
// so the first Insert re-derives the full weighted graph once (the
// writer's form) and from then on Insert tokenizes the profile against
// the frozen schema, appends it
// to the live block collection, splices its adjacency run into a
// copy-on-write overlay over the CSR, reweighs only the edges whose
// weight inputs changed, re-reduces theta_i for exactly the touched
// nodes and re-evaluates only their retention marks — no global rebuild.
// When a change does invalidate a graph-global input (a new block under
// a |B|-dependent weighting, any insert under a cardinality-budget
// pruning), the index falls back to re-deriving weights and retention
// from the spliced adjacency, which still skips the dominant cost of a
// cold build: re-scanning the block collection into a graph.
//
// The correctness contract is strict and enforced by randomized
// differential tests: after any insert sequence, Pairs(), Candidates(i)
// and Threshold(i) are byte-identical to a cold IndexBlocks over the
// live (appended) collection. Cleaning is frozen — Block Purging and
// Filtering decisions are never revisited for streamed profiles.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/shard"
)

// ErrPartialInsert reports that InsertAll failed after admitting a
// prefix of its batch: the returned ids identify the profiles that WERE
// admitted (the index is finalized and consistent over them — equivalent
// to a cold rebuild over its live collection), and the wrapped cause
// explains the failure. It can only arise from an internal invariant
// violation: user input is fully tokenized and validated before the
// first mutation, so malformed profiles never trigger it.
var ErrPartialInsert = errors.New("blast: batch partially admitted")

// Candidate is one candidate comparison served by Index.Candidates (and
// by Server.Candidates): a co-candidate profile id and the BLAST edge
// weight that retained it. It aliases the internal serving type so index
// and snapshot lookups share one representation.
type Candidate = shard.Candidate

// IndexStats summarizes the incremental-update state of an Index.
type IndexStats struct {
	// Inserts is the number of profiles inserted since construction.
	Inserts int
	// LocalizedBatches counts insert batches finalized on the localized
	// path (touched-run reweigh + re-prune only).
	LocalizedBatches int
	// RebuiltBatches counts insert batches that re-derived weights and
	// retention globally from the spliced adjacency (graph-global weight
	// input changed, or a non-node-local pruning scheme).
	RebuiltBatches int
	// Compactions counts overlay compactions (automatic and explicit).
	Compactions int
	// OverlayEntries is the number of adjacency entries currently held in
	// copy-on-write overlay rows.
	OverlayEntries int
	// OverlayLoad is OverlayEntries as a fraction of the base entries —
	// the automatic-compaction trigger metric.
	OverlayLoad float64
	// PendingKeys is the number of streamed blocking keys still waiting
	// for their first valid comparison before forming a block.
	PendingKeys int
}

// Index is the queryable form of a completed pipeline run. Built by
// IndexBlocks or BuildIndex it is frozen: the cleaned block collection
// plus the rows of what pruning retained — per profile, the co-candidate
// ids and the weights that retained them, and the per-node thresholds —
// at 24 bytes a retained pair and 16 a profile, whatever the size of the
// blocking graph they were pruned from. The first Insert turns it into a
// writer, which holds the whole weighted graph (see Insert). It is safe
// for concurrent queries; Insert, InsertAll and Compact mutate it under
// an internal lock (readers see either the state before or after a whole
// insert batch, never a partial one).
type Index struct {
	mu         sync.RWMutex
	kind       model.Kind
	collection *blocking.Collection
	schema     *Schema
	opt        Options
	buildTime  time.Duration
	// spillBytes and pageLoads are what a StorageFile build wrote to its
	// segment files and read back before deleting them.
	spillBytes, pageLoads int64

	// rows is the frozen form: everything a query-only index serves
	// from. nil on a writer.
	rows *shard.Snapshot

	// The writer's form, nil while frozen: the copy-on-write overlay
	// every read and insert goes through, over the full CSR with its
	// co-occurrence statistics and the per-entry retention mask.
	theta []float64
	// retainedEntries counts marked adjacency entries (2 per retained
	// pair), so NumRetained stays O(1) under inserts.
	retainedEntries int64
	ov              *graph.Overlay
	// app appends to the collection; nil until the first Insert, while
	// the collection is still the Blocks artifact's.
	app   *blocking.Appender
	stats IndexStats

	// insertFail, when non-nil, is consulted before each profile of an
	// InsertAll batch mutates the index — a test failpoint simulating
	// mid-batch structural failures. Always nil in production.
	insertFail func(batchIdx int) error
}

// BuildIndex runs the full pipeline on the dataset and freezes the
// outcome into a candidate-serving Index: InduceSchema, Block, then
// IndexBlocks.
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
// the index serves from (metablocking.FreezeCSR) — the same pass
// MetaBlock runs, so Pairs is byte-identical to MetaBlock's. The graph
// ends with the build: a resident one is garbage on return, a spilled
// one (Options.Storage = StorageFile) has had its segment files
// deleted. The first Insert re-derives it from the retained collection.
func (p *Pipeline) IndexBlocks(ctx context.Context, blocks *Blocks) (*Index, error) {
	if blocks == nil || blocks.Collection == nil {
		return nil, errors.New("blast: IndexBlocks requires a non-nil Blocks artifact")
	}
	t0 := time.Now()
	c := blocks.Collection
	ix := &Index{kind: c.Kind, collection: c, schema: blocks.Schema, opt: p.opt}
	if err := ix.freeze(ctx); err != nil {
		return nil, err
	}
	ix.buildTime = time.Since(t0)
	p.opt.progress("index", ix.buildTime)
	return ix, nil
}

// freeze builds the frozen form over the index's collection. Over a
// spilled graph every pass reads through page cursors and fails closed
// on the graph's sticky read error, so no row is ever collected from a
// zeroed run; whatever the outcome, the segment files end here.
func (ix *Index) freeze(ctx context.Context) error {
	cfg := metaConfigFromOptions(ix.opt)
	csr, _, err := metablocking.BuildWeighted(ctx, ix.collection, cfg, false)
	if err != nil {
		return err
	}
	rows, err := metablocking.FreezeCSR(ctx, csr, cfg)
	ix.spillBytes, ix.pageLoads = csr.SpillBytes(), csr.PageLoads()
	if err := csr.CloseAfter(err); err != nil {
		return err
	}
	ix.rows = &shard.Snapshot{
		NumProfiles:   csr.NumProfiles,
		NumEdges:      csr.NumEdges(),
		RetainedPairs: len(rows.Neighbors) / 2,
		Offsets:       rows.Offsets,
		Neighbors:     rows.Neighbors,
		Weights:       rows.Weights,
		Theta:         rows.Theta,
	}
	return nil
}

// thaw builds the writer's form over c, the collection the index holds
// or is about to: the resident graph with its co-occurrence statistics
// (inserts re-weigh from them, and the overlay indexes resident arrays,
// so Options.Storage does not apply), weighed by the kernel, with the
// decisions of freezeDecisions. On error the index is unchanged.
func (ix *Index) thaw(ctx context.Context, c *blocking.Collection) error {
	cfg := metaConfigFromOptions(ix.opt)
	cfg.Spill = nil
	csr, _, err := metablocking.BuildWeighted(ctx, c, cfg, true)
	if err != nil {
		return err
	}
	return ix.adoptDecisions(ctx, csr)
}

// adoptDecisions installs a weighted, statistics-bearing graph and the
// pruning decisions derived from it as the writer's state.
func (ix *Index) adoptDecisions(ctx context.Context, csr *graph.CSR) error {
	retained, theta, entries, err := freezeDecisions(ctx, csr, ix.opt)
	if err != nil {
		return err
	}
	ix.rows = nil
	ix.theta, ix.retainedEntries = theta, entries
	ix.ov = graph.NewOverlay(csr, retained)
	return nil
}

// freezeDecisions derives the writer's pruning state from a weighted
// resident CSR: the per-entry retention mask, the per-node thresholds
// (the ones the pruning pass reduced and decided by; nil for global and
// cardinality schemes) and the number of marked entries. It is the
// shared tail of a writer's build and of the incremental path's global
// re-derivation, and the shape the frozen form's collected rows are
// tested against (the mask filters the graph to exactly those rows).
func freezeDecisions(ctx context.Context, csr *graph.CSR, opt Options) ([]bool, []float64, int64, error) {
	pairs, theta, err := metablocking.PruneCSRTheta(ctx, csr, metaConfigFromOptions(opt))
	if err != nil {
		return nil, nil, 0, err
	}
	// Mark both entries of every retained edge. The pruning schemes emit
	// pairs in canonical order — the exact order CanonicalMirrorCtx
	// visits edges — so a single merge pass resolves pair -> entry.
	retained := make([]bool, csr.NumEntries())
	next := 0
	err = csr.CanonicalMirrorCtx(ctx, func(u, v int32, pos, mirror int64) {
		if next < len(pairs) && pairs[next].U == u && pairs[next].V == v {
			retained[pos] = true
			retained[mirror] = true
			next++
		}
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return retained, theta, 2 * int64(len(pairs)), nil
}

// NumProfiles returns the number of profiles the index covers, including
// inserted ones.
func (ix *Index) NumProfiles() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.numProfilesLocked()
}

func (ix *Index) numProfilesLocked() int {
	if ix.rows != nil {
		return ix.rows.NumProfiles
	}
	return ix.ov.NumProfiles()
}

// NumEdges returns the number of distinct comparisons of the underlying
// blocking graph (before pruning).
func (ix *Index) NumEdges() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rows != nil {
		return ix.rows.NumEdges
	}
	return ix.ov.NumEdges()
}

// NumRetained returns the number of comparisons the pruning retained —
// the length of Pairs.
func (ix *Index) NumRetained() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rows != nil {
		return ix.rows.RetainedPairs
	}
	return int(ix.retainedEntries / 2)
}

// Kind returns the ER setting of the indexed dataset.
func (ix *Index) Kind() model.Kind { return ix.kind }

// Schema returns the Phase 1 artifact the index was blocked under (nil
// for a schema-agnostic index).
func (ix *Index) Schema() *Schema { return ix.schema }

// Blocks returns the block collection backing the index. Before the
// first Insert this is the collection of the Blocks artifact the index
// was built from; the first Insert replaces it with a private clone that
// subsequent inserts extend (the artifact is never mutated). The
// returned collection must not be modified.
func (ix *Index) Blocks() *blocking.Collection {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.collection
}

// BuildTime returns the wall-clock time IndexBlocks spent freezing the
// index (graph, weighting, pruning and row collection).
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// Stats returns the incremental-update counters of the index.
func (ix *Index) Stats() IndexStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.stats
	if ix.rows == nil {
		st.OverlayEntries = ix.ov.OverlayEntries()
		st.OverlayLoad = ix.ov.OverlayLoad()
	}
	if ix.app != nil {
		st.PendingKeys = ix.app.PendingKeys()
	}
	return st
}

// Threshold returns theta_i, the node-local pruning threshold of a
// profile, for the threshold-based schemes (BlastWNP, WNP1, WNP2); 0 for
// profiles without edges, out-of-range ids, or schemes without per-node
// thresholds. The node-locality of theta_i is what makes per-profile
// serving and incremental updates possible.
func (ix *Index) Threshold(profile int) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rows != nil {
		return ix.rows.Threshold(profile)
	}
	if ix.theta == nil || profile < 0 || profile >= len(ix.theta) {
		return 0
	}
	return ix.theta[profile]
}

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
// portion by descending weight (ties by ascending id). Out-of-range
// profiles append nothing. A frozen index copies the profile's row and
// sorts it — O(candidates); a writer filters the live adjacency run,
// O(degree). No allocation occurs when buf has capacity.
func (ix *Index) AppendCandidates(buf []Candidate, profile int) []Candidate {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rows != nil {
		return ix.rows.AppendCandidates(buf, profile)
	}
	if profile < 0 || profile >= ix.ov.NumProfiles() {
		return buf
	}
	start := len(buf)
	run := ix.ov.Run(int32(profile))
	for i, v := range run.Neighbors {
		if run.Retained[i] {
			buf = append(buf, Candidate{ID: v, Weight: run.Weights[i]})
		}
	}
	// shard.CompareCandidates is the one canonical serving order.
	slices.SortFunc(buf[start:], shard.CompareCandidates)
	return buf
}

// Pairs returns the full batch output of the index: every retained
// comparison in canonical order, byte-identical to the Pairs of the
// staged pipeline and of legacy Run under the same options (and, after
// inserts, to a cold IndexBlocks over the live collection). The slice is
// freshly allocated and owned by the caller: one canonical walk of the
// frozen rows, or of a writer's live adjacency.
func (ix *Index) Pairs() []model.IDPair {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// The walks only fail on cancellation, which Background never does.
	ctx := context.Background()
	if ix.rows != nil {
		pairs, _ := ix.rows.AppendOwnedPairs(ctx, make([]model.IDPair, 0, ix.rows.RetainedPairs), ix.rows.Owns)
		return pairs
	}
	pairs := make([]model.IDPair, 0, ix.retainedEntries/2)
	_ = ix.ov.ForEachCanonical(ctx, func(u, v int32, _ float64, retained bool) {
		if retained {
			pairs = append(pairs, model.IDPair{U: u, V: v})
		}
	})
	return pairs
}

// Insert adds one profile to the index and returns its assigned global
// id. The profile is tokenized against the frozen schema (attributes
// unknown to the schema are not indexed), appended to the live block
// collection, and folded into the weighted, pruned blocking graph
// incrementally; afterwards the index is byte-identical to a cold
// IndexBlocks over the live collection. The first Insert into a frozen
// index pays for that graph once: it is rebuilt, weighted and pruned
// from the collection, and stays resident (33 bytes an adjacency entry)
// from then on. For clean-clean indexes the
// profile joins E2 — streaming new entities against a fixed reference
// collection; dirty indexes have a single source. The caller's original
// Dataset and Blocks artifacts are never mutated (the first Insert
// clones the collection).
//
// ctx is observed before any mutation; once the profile is appended the
// update always runs to completion so the index never ends up between
// states.
func (ix *Index) Insert(ctx context.Context, p *model.Profile) (int, error) {
	if p == nil {
		return -1, errors.New("blast: Insert requires a non-nil profile")
	}
	ids, err := ix.InsertAll(ctx, []model.Profile{*p})
	if len(ids) == 1 {
		return ids[0], err
	}
	return -1, err
}

// InsertAll adds a batch of profiles, amortizing the re-weighting and
// re-pruning work across the whole batch, and returns the assigned
// global ids in order. The whole batch is tokenized against the frozen
// schema before anything mutates (validate-then-apply), so user input
// can never strand a half-admitted batch. Cancellation is observed
// between profiles: on a cancelled context the already-appended prefix
// is finalized (leaving the index consistent and equivalent to a cold
// rebuild over it), the prefix ids are returned together with ctx.Err().
// Should an internal invariant violation interrupt the batch mid-way,
// the admitted prefix is finalized the same way and the error wraps
// ErrPartialInsert with the prefix ids returned.
func (ix *Index) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	if len(profiles) == 0 {
		return nil, ctx.Err()
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ix.ensureMutableLocked(ctx); err != nil {
		// Cancelled while re-deriving the writer: the index is unchanged,
		// nothing was admitted.
		return nil, err
	}

	// Validate-then-apply: all per-profile input processing (transform,
	// key function, dedup) runs before the first mutation, so the only
	// mid-batch failures left are cancellation and internal invariants.
	keys := make([][]blocking.KeyEntropy, len(profiles))
	for i := range profiles {
		keys[i] = ix.profileKeys(&profiles[i])
	}

	st := newInsertState()
	var ids []int
	var cancelErr error
	for i := range profiles {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		if ix.insertFail != nil {
			if err := ix.insertFail(i); err != nil {
				if ferr := ix.finalizeLocked(st); ferr != nil {
					err = errors.Join(err, ferr)
				}
				return ids, partialInsertError(len(ids), len(profiles), err)
			}
		}
		id, err := ix.appendOneLocked(keys[i], st)
		if err != nil {
			// Structural invariant violation; the collection append
			// already happened, so finalize what landed before failing.
			if ferr := ix.finalizeLocked(st); ferr != nil {
				err = errors.Join(err, ferr)
			}
			return ids, partialInsertError(len(ids), len(profiles), err)
		}
		ids = append(ids, int(id))
	}
	if err := ix.finalizeLocked(st); err != nil {
		return ids, partialInsertError(len(ids), len(profiles), err)
	}
	return ids, cancelErr
}

// partialInsertError classifies a mid-batch failure: a batch that never
// admitted anything is a plain rejection, one that did wraps
// ErrPartialInsert so callers can detect the partial admission.
func partialInsertError(admitted, batch int, cause error) error {
	if admitted == 0 {
		return fmt.Errorf("blast: batch rejected before any admission: %w", cause)
	}
	return fmt.Errorf("%w (%d of %d profiles): %w", ErrPartialInsert, admitted, batch, cause)
}

// Compact folds the insert overlay into a fresh flat base CSR,
// preserving weights, retention marks and thresholds. It is a no-op on
// an index without materialized overlay rows. Automatic compaction is
// governed by Options.Compaction; this call forces one regardless.
// Cancellation is honored mid-fold: on error the overlay is untouched.
func (ix *Index) Compact(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.ov == nil || ix.ov.OverlayEntries() == 0 {
		return nil
	}
	return ix.compactLocked(ctx)
}

// ensureMutableLocked prepares the index for its first insert: the
// collection is cloned (the Blocks artifact stays frozen), a frozen
// index re-derives the writer's form over the clone — structurally and
// bit for bit the graph its rows were pruned from, the builders being
// deterministic — and an appender is indexed over it. A non-nil error
// (cancellation) means the index was left unchanged.
func (ix *Index) ensureMutableLocked(ctx context.Context) error {
	if ix.app != nil {
		return nil
	}
	c := ix.collection.Clone()
	if ix.rows != nil {
		if err := ix.thaw(ctx, c); err != nil {
			return err
		}
	}
	ix.collection = c
	ix.app = blocking.NewAppender(c)
	return nil
}

// StorageStats reports what the build that froze the index did with its
// graph storage: the bytes of spill segment data it had on disk when
// the rows were collected, and the segment frames it read back. Both
// are zero for a build that stayed resident (Options.Storage =
// StorageMemory, or a graph under MemoryBudget) and for an index built
// as a writer.
func (ix *Index) StorageStats() (spillBytes, pageLoads int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.spillBytes, ix.pageLoads
}

// insertState accumulates, across one InsertAll batch, everything the
// finalize step needs to decide between the localized and the global
// re-derivation path and to bound the localized work.
type insertState struct {
	newIDs []int32
	// created counts new blocks (graph-global |B| changed).
	created int
	// addedEdges counts spliced half-edges' canonical edges (|E| changed).
	addedEdges int
	// reweighRuns are existing nodes whose whole run must be reweighed:
	// their |B_i| changed (pending-key materialization) or, under an
	// ARCS-consuming scheme, their co-occurrence mass shifted.
	reweighRuns map[int32]struct{}
	// arcsBlocks are blocks that grew, dirtying the ARCS mass of every
	// pair inside them (tracked only for ARCS-consuming schemes).
	arcsBlocks map[int32]struct{}
}

func newInsertState() *insertState {
	return &insertState{
		reweighRuns: make(map[int32]struct{}),
		arcsBlocks:  make(map[int32]struct{}),
	}
}

// appendOneLocked performs the structural part of one insert: collection
// append, adjacency-run accumulation, overlay append and mirror splices,
// from the profile's pre-tokenized keys. Weighting and pruning are
// deferred to finalizeLocked.
func (ix *Index) appendOneLocked(keys []blocking.KeyEntropy, st *insertState) (int32, error) {
	res := ix.app.Append(keys)
	ix.ov.AddBlocks(len(res.Created))
	ix.ov.AddComparisons(res.ComparisonsDelta)
	for _, m := range res.CountChanged {
		ix.ov.IncBlockCount(m)
		st.reweighRuns[m] = struct{}{}
	}

	neighbors, common, arcs, entropy := ix.accumulateRun(res.ID, res.Joined)
	row := &graph.Row{
		Neighbors:  neighbors,
		Common:     common,
		ARCS:       arcs,
		EntropySum: entropy,
		Weights:    make([]float64, len(neighbors)),
		Retained:   make([]bool, len(neighbors)),
	}
	id, err := ix.ov.AppendRow(row, int32(len(res.Joined)))
	if err != nil {
		return -1, err
	}
	if id != res.ID {
		return -1, fmt.Errorf("blast: insert id drift: collection %d, graph %d", res.ID, id)
	}
	for i, v := range neighbors {
		if _, _, err := ix.ov.Splice(v, id, common[i], arcs[i], entropy[i]); err != nil {
			return -1, err
		}
	}
	if ix.theta != nil {
		ix.theta = append(ix.theta, 0)
	}

	st.newIDs = append(st.newIDs, id)
	st.created += len(res.Created)
	st.addedEdges += len(neighbors)
	if ix.opt.Scheme.UsesARCS() {
		for _, bi := range res.Joined {
			grown := true
			for _, ci := range res.Created {
				if ci == bi {
					grown = false // fresh two-member block: its only pair is new
					break
				}
			}
			if grown {
				st.arcsBlocks[bi] = struct{}{}
			}
		}
	}
	ix.stats.Inserts++
	return id, nil
}

// profileKeys tokenizes a profile against the frozen schema exactly as
// Phase 2 blocking would: the value transform extracts terms, the
// schema's key function qualifies them, and re-occurrences of a key
// within the profile are deduplicated.
func (ix *Index) profileKeys(p *model.Profile) []blocking.KeyEntropy {
	return tokenizeProfile(ix.schema, ix.kind, &ix.opt, p)
}

// tokenizeProfile is the schema tokenization shared by every streaming
// writer (Index, the Server's partIndex): one implementation so both
// assign identical block keys to identical profiles.
func tokenizeProfile(schema *Schema, kind model.Kind, opt *Options, p *model.Profile) []blocking.KeyEntropy {
	key := schema.keyFunc()
	source := 0
	if kind == model.CleanClean {
		source = 1 // streamed profiles join E2
	}
	seen := make(map[string]bool)
	var out []blocking.KeyEntropy
	for _, pair := range p.Pairs {
		for _, tok := range opt.Transform.Terms(pair.Value) {
			k, h, ok := key(source, pair.Name, tok)
			if !ok || seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, blocking.KeyEntropy{Key: k, Entropy: h})
		}
	}
	return out
}

// accumulateRun computes a node's adjacency run (neighbors ascending,
// with co-occurrence accumulators) from its live block memberships
// (blocks, ascending), visiting blocks in ascending index order so every
// floating-point sum is bit-identical to a cold BuildCSR over the same
// collection.
func (ix *Index) accumulateRun(n int32, blocks []int32) (neighbors, common []int32, arcs, entropy []float64) {
	type acc struct {
		common  int32
		arcs    float64
		entropy float64
	}
	c := ix.collection
	m := make(map[int32]*acc)
	add := func(j int32, inv, h float64) {
		a := m[j]
		if a == nil {
			a = &acc{}
			m[j] = a
			neighbors = append(neighbors, j)
		}
		a.common++
		a.arcs += inv
		a.entropy += h
	}
	side := 0 // the other side of a clean-clean block, all of a dirty one
	if c.Kind == model.CleanClean && int(n) < c.Split {
		side = 1
	}
	for _, bi := range blocks {
		cmp := c.Comparisons(int(bi))
		if cmp == 0 {
			continue
		}
		inv, h := 1/float64(cmp), c.Entropy(int(bi))
		run, appended := c.Members(int(bi), side)
		for _, j := range append(run, appended...) {
			if j != n {
				add(j, inv, h)
			}
		}
	}
	slices.Sort(neighbors)
	common = make([]int32, len(neighbors))
	arcs = make([]float64, len(neighbors))
	entropy = make([]float64, len(neighbors))
	for i, j := range neighbors {
		a := m[j]
		common[i], arcs[i], entropy[i] = a.common, a.arcs, a.entropy
	}
	return neighbors, common, arcs, entropy
}

// finalizeLocked turns the batch's structural changes into final
// weights, thresholds and retention marks. It always runs to completion
// (no cancellation): interrupting between the collection append and the
// decision update would leave the index between states. A non-nil error
// reports a broken internal invariant; InsertAll surfaces it wrapped in
// ErrPartialInsert rather than panicking through the caller.
func (ix *Index) finalizeLocked(st *insertState) error {
	if len(st.newIDs) == 0 {
		return nil
	}

	// Fix co-occurrence accumulators first: under an ARCS-consuming
	// scheme every pair inside a grown block carries a changed 1/||b||
	// mass, so the member runs are re-accumulated from the live
	// collection (bit-identical to a cold build) before any weighting.
	if ix.opt.Scheme.UsesARCS() && len(st.arcsBlocks) > 0 {
		inv := blocking.NewInverse(ix.collection)
		for _, n := range ix.membersOf(st.arcsBlocks) {
			_, common, arcs, entropy := ix.accumulateRun(n, inv.Of(n))
			if err := ix.ov.ReplaceStats(n, common, arcs, entropy); err != nil {
				// The spliced run always matches a fresh accumulation of
				// the live collection; a mismatch is a broken invariant.
				return err
			}
			st.reweighRuns[n] = struct{}{}
		}
	}

	localized := ix.opt.Pruning.NodeLocal() &&
		!(ix.opt.Scheme.UsesTotalBlocks() && st.created > 0) &&
		!(ix.opt.Scheme.UsesEdgeCount() && st.addedEdges > 0)
	if !localized {
		if err := ix.rebuildDecisionsLocked(); err != nil {
			return err
		}
		ix.stats.RebuiltBatches++
		return nil
	}
	if err := ix.localizedFinalize(st); err != nil {
		return err
	}
	ix.stats.LocalizedBatches++

	cp := ix.opt.Compaction
	if !cp.disabled() && ix.ov.OverlayEntries() >= cp.minEntries() && ix.ov.OverlayLoad() > cp.maxFraction() {
		// compactLocked cannot fail here: a mutable index always retains
		// its co-occurrence statistics and the background context never
		// cancels.
		_ = ix.compactLocked(context.Background())
	}
	return nil
}

// membersOf collects the distinct member profiles of a block set,
// ascending.
func (ix *Index) membersOf(blocks map[int32]struct{}) []int32 {
	seen := make(map[int32]struct{})
	var out []int32
	for bi := range blocks {
		b := ix.collection.Block(int(bi))
		for _, m := range b.P1 {
			seen[m] = struct{}{}
		}
		for _, m := range b.P2 {
			seen[m] = struct{}{}
		}
	}
	for m := range seen {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// localizedFinalize is the fast path: reweigh exactly the edges whose
// inputs changed, re-reduce theta_i for the nodes whose run weights
// changed, and re-evaluate retention only where a weight or a threshold
// moved. Everything else keeps its frozen decision, which is provably
// the cold decision because its inputs are unchanged. A missing mirror
// entry (every spliced half-edge must exist on both endpoints) is a
// broken invariant, reported as an error rather than a panic so a
// caller's InsertAll fails instead of crashing the process.
func (ix *Index) localizedFinalize(st *insertState) error {
	ov := ix.ov
	w := ix.opt.Scheme.Weigher(ov.NumEdges(), ov.TotalBlocks())

	type edgeRef struct {
		u  int32 // canonical u < v
		v  int32
		pu int // position of v in u's run
		pv int // position of u in v's run
	}
	var dirtyEdges []edgeRef
	weightTouched := make(map[int32]struct{})

	// computeWeight evaluates the scheme for the canonical edge (u < v)
	// using u's entry statistics — the exact argument order ApplyCSR
	// uses, so recomputed values are bit-identical to a cold weighting.
	computeWeight := func(u, v int32, pu int) float64 {
		run := ov.Run(u)
		return w.Weight(run.Common[pu],
			ov.BlockCount(u), ov.BlockCount(v),
			int32(ov.Degree(u)), int32(ov.Degree(v)),
			run.ARCS[pu], run.EntropySum[pu])
	}

	// New edges: every spliced edge has its larger endpoint among the new
	// ids, so iterating the new rows and skipping larger neighbors (edges
	// between two new profiles, owned by the later one) enumerates each
	// exactly once, always in canonical orientation.
	for _, x := range st.newIDs {
		run := ov.Run(x)
		for pos := range run.Neighbors {
			v := run.Neighbors[pos]
			if v > x {
				continue
			}
			pv, ok := ov.FindNeighbor(v, x)
			if !ok {
				return fmt.Errorf("blast: missing mirror entry (%d,%d)", v, x)
			}
			wt := computeWeight(v, x, pv)
			ov.SetWeight(x, pos, wt)
			ov.SetWeight(v, pv, wt)
			weightTouched[x] = struct{}{}
			weightTouched[v] = struct{}{}
			dirtyEdges = append(dirtyEdges, edgeRef{u: v, v: x, pu: pv, pv: pos})
		}
	}

	// Runs whose weight inputs changed wholesale (|B_i| bumped by a
	// pending-key materialization, or ARCS mass re-accumulated): compare
	// against the stored weight so only genuine changes propagate.
	for n := range st.reweighRuns {
		run := ov.Run(n)
		for pos := range run.Neighbors {
			v := run.Neighbors[pos]
			pv, ok := ov.FindNeighbor(v, n)
			if !ok {
				return fmt.Errorf("blast: missing mirror entry (%d,%d)", v, n)
			}
			u1, p1, u2, p2 := n, pos, v, pv
			if v < n {
				u1, p1, u2, p2 = v, pv, n, pos
			}
			wt := computeWeight(u1, u2, p1)
			if wt == ov.WeightAt(u1, p1) {
				continue
			}
			ov.SetWeight(u1, p1, wt)
			ov.SetWeight(u2, p2, wt)
			weightTouched[u1] = struct{}{}
			weightTouched[u2] = struct{}{}
			dirtyEdges = append(dirtyEdges, edgeRef{u: u1, v: u2, pu: p1, pv: p2})
		}
	}

	// Re-reduce theta_i for every node whose run weights (or run length)
	// changed; track which thresholds actually moved.
	thetaChanged := make(map[int32]struct{})
	for n := range weightTouched {
		run := ov.Run(n)
		var th float64
		switch ix.opt.Pruning {
		case metablocking.BlastWNP:
			th = prune.BlastThresholdOf(run.Weights, ix.opt.C)
		default: // WNP1, WNP2
			th = prune.MeanThresholdOf(run.Weights)
		}
		if th != ix.theta[n] {
			ix.theta[n] = th
			thetaChanged[n] = struct{}{}
		}
	}

	// Re-evaluate retention where a decision input moved: every edge
	// incident to a node whose theta changed, plus every edge whose
	// weight changed or is new.
	reEval := func(u, v int32, pu, pv int) {
		wt := ov.WeightAt(u, pu)
		keep := wt > 0 && ix.keepEdge(wt, ix.theta[u], ix.theta[v])
		if old := ov.SetRetained(u, pu, keep); old != keep {
			if keep {
				ix.retainedEntries++
			} else {
				ix.retainedEntries--
			}
		}
		if old := ov.SetRetained(v, pv, keep); old != keep {
			if keep {
				ix.retainedEntries++
			} else {
				ix.retainedEntries--
			}
		}
	}
	for n := range thetaChanged {
		run := ov.Run(n)
		for pos := range run.Neighbors {
			v := run.Neighbors[pos]
			pv, ok := ov.FindNeighbor(v, n)
			if !ok {
				return fmt.Errorf("blast: missing mirror entry (%d,%d)", v, n)
			}
			reEval(n, v, pos, pv)
		}
	}
	for _, e := range dirtyEdges {
		reEval(e.u, e.v, e.pu, e.pv)
	}
	return nil
}

// keepEdge applies the node-local retention criterion — the same
// predicates the streaming pruners use (positive weight is checked by
// the caller).
func (ix *Index) keepEdge(w, thU, thV float64) bool {
	switch ix.opt.Pruning {
	case metablocking.BlastWNP:
		return w >= (thU+thV)/ix.opt.D
	case metablocking.WNP1:
		return w >= thU || w >= thV
	case metablocking.WNP2:
		return w >= thU && w >= thV
	default:
		panic(fmt.Sprintf("blast: keepEdge on non-node-local pruning %v", ix.opt.Pruning))
	}
}

// rebuildDecisionsLocked is the global fallback: compact the spliced
// adjacency into a flat CSR, reapply the weighting scheme to every edge
// from the retained co-occurrence statistics, and re-derive pruning,
// retention marks and thresholds through the same code path a writer's
// build uses. This skips only — but exactly — the dominant cost of a
// cold build: re-scanning the block collection into a graph.
func (ix *Index) rebuildDecisionsLocked() error {
	// Background context: the update is committed structurally, so it
	// must run to completion (see InsertAll's cancellation contract).
	ctx := context.Background()
	csr, _, err := ix.ov.Compact(ctx)
	if err != nil {
		// A mutable index always retains its statistics, so this is a
		// broken invariant — surfaced to InsertAll, not a panic.
		return err
	}
	if err := ix.opt.Scheme.ApplyCSRCtx(ctx, csr, ix.opt.Workers); err != nil {
		return err // background context never cancels
	}
	return ix.adoptDecisions(ctx, csr)
}

// compactLocked folds the overlay into a fresh flat base, preserving
// weights, retention marks and thresholds (no re-weighting). On error
// (cancellation) the overlay is left untouched.
func (ix *Index) compactLocked(ctx context.Context) error {
	csr, retained, err := ix.ov.Compact(ctx)
	if err != nil {
		return err
	}
	ix.ov = graph.NewOverlay(csr, retained)
	ix.stats.Compactions++
	return nil
}
