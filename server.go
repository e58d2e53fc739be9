package blast

// Snapshot-swap serving. A Server scales the candidate-serving Index to
// heavy read traffic by separating the write and read paths completely:
//
//   - Writes are globally sequenced into one writer (partition.go)
//     through one queue, from InsertAll to apply (internal/shard): one
//     worker appends every committed batch, once, to one clone of the
//     (compact) block collection. When a publication falls due it
//     freezes the collection — BuildWeighted, then FreezeCSR, the
//     freeze an Index runs — by ServerOptions.Shards parties at once,
//     each over the rows whose profile ids hash onto it, resolving the
//     graph-global pruning inputs (degrees, |E|, weight sums, cuts,
//     thresholds) by exchanging compact aggregates, and joins their
//     rows (shard.JoinOwned). The start state is the same export, so
//     every state a Server serves is a writer export, built resident.
//   - Reads never touch the writer. Each publication — the retained
//     rows, nothing of the graph they were pruned from — is swapped in
//     behind one atomic pointer. Every read, View and Pairs is one load
//     of it, served wait-free.
//
// Consistency contract: every read observes the newest published state,
// one position of the insert sequence. Quiesce establishes the
// strongest state — every admitted profile applied and published —
// after which the server's Pairs/Candidates/Threshold are
// byte-identical to a cold IndexBlocks over the union collection
// (enforced by the randomized differential tests in server_test.go).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
)

// Server serves candidate queries from snapshot-swap states frozen by
// hash-partitioned parties while absorbing streamed profile inserts.
// Construct with Pipeline.Serve or Pipeline.ServeBlocks; always Close a
// server when done (Close stops the writer; reads stay valid
// afterwards). All methods are safe for concurrent use.
type Server struct {
	w      *writer
	worker *shard.Shard // runs w: admission, group commit and apply
	schema *Schema
	pers   *snapPersister // nil where persistence is off

	state   atomic.Pointer[View] // the newest published state
	closing atomic.Bool
}

// Serve runs the full pipeline on the dataset and starts a
// snapshot-swap server over the outcome: InduceSchema, Block, then
// ServeBlocks. Invalid options are rejected before any of that work.
func (p *Pipeline) Serve(ctx context.Context, ds *model.Dataset, sopt ServerOptions) (*Server, error) {
	if err := sopt.Validate(); err != nil {
		return nil, err
	}
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		return nil, err
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		return nil, err
	}
	return p.ServeBlocks(ctx, blocks, sopt)
}

// ServeBlocks starts a server over a Blocks artifact, which is never
// mutated: one writer over one clone of the block collection, and reads
// served from that writer's first export until it next publishes. Every
// state is a writer export, built resident: Options.MemoryBudget reaches
// only the cold builds (MetaBlock, IndexBlocks), never a Server.
// Options.Workers reaches every freeze, whose output is byte-identical
// at any worker count. A failing party of a publication poisons that
// freeze's exchange, failing its peers too — each party's rows exist nowhere
// else — so the publication fails, the earlier state keeps serving and
// the failure is sticky (Err).
//
// With ServerOptions.Dir set the server is durable: each admitted batch
// is journaled as one record of one write-ahead log before ids are
// returned, published states are persisted on the SnapshotEvery
// cadence, one file each, and ServeBlocks over an existing directory
// recovers the pre-crash state: every journaled batch is appended once
// to the writer, and the start state is either adopted from disk — the
// newest file at the log's last record, which is what a drained Close
// leaves — or the writer's export over the recovered union collection.
// Nothing on disk depends on the shard count. See durable.go for the
// layout and the fail-closed rules.
func (p *Pipeline) ServeBlocks(ctx context.Context, blocks *Blocks, sopt ServerOptions) (srv *Server, err error) {
	if err := sopt.Validate(); err != nil {
		return nil, err
	}
	if blocks == nil || blocks.Collection == nil {
		return nil, errors.New("blast: ServeBlocks requires a non-nil Blocks artifact")
	}
	c, n := blocks.Collection, sopt.shards()
	var log *wal.Log
	var replay [][]model.Profile
	if sopt.Dir != "" {
		if log, replay, err = openDurable(c, sopt); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				err = errors.Join(err, log.Close())
			}
		}()
	}

	srv = &Server{w: newWriter(c.Clone(), blocks.Schema, p.opt, n), schema: blocks.Schema}
	cut, admitted := len(replay), c.NumProfiles
	var start *shard.Snapshot
	if log != nil {
		for k, b := range replay {
			if _, err := srv.w.InsertAll(ctx, b); err != nil {
				return nil, fmt.Errorf("blast: wal replay, batch %d: %w", k, err)
			}
			admitted += len(b)
		}
		start = adoptSnapshot(durSnapDir(sopt.Dir), cut, admitted)
	}
	if start == nil {
		// Nothing adoptable: the writer exports the union collection, the
		// freeze of every later publication, reported as an index build.
		t0 := time.Now()
		if start, err = srv.w.Export(ctx); err != nil {
			return nil, err
		}
		p.opt.progress("index", time.Since(t0))
		if log != nil {
			maxEpoch := uint64(0)
			if names := snapFileNames(durSnapDir(sopt.Dir)); len(names) > 0 {
				maxEpoch, _ = snapFileEpoch(names[len(names)-1])
			}
			if maxEpoch > 0 || cut > 0 {
				// Publish strictly above every file on disk, at the log's
				// record count, so persisting the recovered state clobbers
				// no file a later recovery might still need.
				//blast:allow snapshotmut -- pre-publication tag of a private build's rows; no reader can hold them before the state is stored below
				start.Epoch, start.Batches = maxEpoch+1, int64(cut)
			}
		}
	}
	if every := sopt.snapshotEvery(); log != nil && every > 0 {
		srv.pers = &snapPersister{dir: durSnapDir(sopt.Dir), every: every, keep: 2, last: int64(cut)}
		if start.Epoch > 0 {
			// A recovered state is persisted at once, so the next open
			// adopts it without a rebuild. An adopted snapshot is on disk
			// already; rewriting the same bytes keeps one rule.
			if err := srv.pers.persistNow(start); err != nil {
				return nil, err
			}
		}
	}
	srv.state.Store(newView(start, n))
	def := sopt.WithDefaults()
	srv.w.log = log
	srv.worker = shard.New(srv.w, start, shard.Options{
		SwapOps: sopt.swapOps(), MaxRequests: def.MaxPendingRequests, MaxBytes: def.MaxPendingBytes, Publish: srv.publish,
	})
	return srv, nil
}

// NumShards returns the number of parties every publication is frozen
// by: ServerOptions.Shards.
func (s *Server) NumShards() int { return s.w.parts }

// Admitted returns the number of profiles the server has accepted:
// the build's profiles plus every insert admitted so far, whether or
// not the writer has applied and published them yet.
func (s *Server) Admitted() int { return s.worker.Admitted() }

// NumProfiles returns the number of profiles the published state
// covers. After Quiesce it equals Admitted.
func (s *Server) NumProfiles() int { return s.state.Load().NumProfiles() }

// Stats returns one entry per partition: the writer's counters, and the
// partition's ID and share of the published state (OwnedRows,
// ResidentBytes), counted once a publication.
func (s *Server) Stats() []shard.Stats {
	st, shares := s.worker.Stats(), s.state.Load().shares
	out := make([]shard.Stats, len(shares))
	for i, sh := range shares {
		out[i] = st
		out[i].ID, out[i].OwnedRows, out[i].ResidentBytes = sh.ID, sh.OwnedRows, sh.ResidentBytes
	}
	return out
}

// Err returns the first error the serving machinery encountered, if
// any: a broken write-ahead log (an append whose failure could not be
// undone) or a failed writer. A non-nil result is sticky and fails all
// further admissions.
func (s *Server) Err() error {
	if s.w.log != nil {
		if err := s.w.log.Err(); err != nil {
			return err
		}
	}
	return s.worker.Err()
}

// ErrOverloaded is returned by InsertAll when admitting the call would
// take the calls admitted and not yet applied past
// ServerOptions.MaxPendingRequests or MaxPendingBytes: the writer is
// behind by the budget. Nothing of the call was admitted; it may be
// retried once the writer has caught up.
var ErrOverloaded = shard.ErrOverloaded

// WriteStats is a point-in-time summary of a Server's write queue:
// what InsertAll committed, rejected and dropped, and the calls admitted
// and not yet applied, which MaxPendingRequests and MaxPendingBytes
// bound.
type WriteStats = shard.WriteStats

// WriteStats snapshots the write-queue counters.
func (s *Server) WriteStats() WriteStats { return s.worker.WriteStats() }

// InsertAll admits a batch of profiles, assigns their global ids, and
// hands the batch to the writer. The profiles are copied, so the caller
// may reuse them once InsertAll returns.
//
// Concurrent calls are committed together as one group — one record of
// the write-ahead log, one batch for the writer — by the call at the
// head of the queue, so N concurrent callers cost as many commits as the
// fsyncs they queue behind, not N. Ids are assigned in queue order and
// are contiguous within a call. A call beyond
// ServerOptions.MaxPendingRequests or MaxPendingBytes — which count the
// calls admitted and not yet applied — fails at once with ErrOverloaded,
// so a writer behind by the budget sheds load instead of queueing it.
//
// An error return means none of the call's profiles were admitted. A
// call whose ctx ends while it is queued leaves the queue with ctx's
// error; one already taken into a group waits out that group's commit
// and returns its outcome. After Close, calls fail with
// shard.ErrClosed; after the writer failed, with its sticky error.
//
// Ids are returned once the group is journaled; application and
// publication are asynchronous: reads observe the batch once the writer
// next publishes (due after ServerOptions.SwapOps applied profiles,
// published at the newest batch committed when it fell due, at the
// latest on Quiesce or Close — see the consistency contract above).
func (s *Server) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	// The writer reads the batch asynchronously, so nothing may alias
	// caller memory — copying the Profile structs alone would share the
	// Pairs backing arrays and let a caller reusing its buffers race the
	// applier.
	batch := make([]model.Profile, len(profiles))
	for i := range profiles {
		batch[i] = profiles[i]
		batch[i].Pairs = slices.Clone(profiles[i].Pairs)
	}
	return s.worker.Commit(ctx, batch, profilesBytes(profiles))
}

// profilesBytes estimates the in-memory size of a batch: the unit of
// ServerOptions.MaxPendingBytes.
func profilesBytes(profiles []model.Profile) int64 {
	n := int64(0)
	for i := range profiles {
		n += int64(len(profiles[i].ID)) + 16
		for _, pr := range profiles[i].Pairs {
			n += int64(len(pr.Name)+len(pr.Value)) + 32
		}
	}
	return n
}

// publish is the writer's Publish hook, run on its worker goroutine: it
// swaps the state in and persists it when SnapshotEvery says so.
func (s *Server) publish(state *shard.Snapshot) error {
	s.state.Store(newView(state, s.w.parts))
	if s.pers != nil {
		return s.pers.persist(state)
	}
	return nil
}

// Candidates returns the retained candidate comparisons of one profile
// in the published state, ordered by descending weight (ties by
// ascending id). Result semantics match Index.Candidates (never nil;
// out-of-range ids yield an empty slice).
func (s *Server) Candidates(profile int) []Candidate { return s.state.Load().Candidates(profile) }

// AppendCandidates appends the retained candidate comparisons of one
// profile to buf, serving wait-free from the published state. Semantics
// match Index.AppendCandidates.
func (s *Server) AppendCandidates(buf []Candidate, profile int) []Candidate {
	return s.state.Load().AppendCandidates(buf, profile)
}

// Threshold returns theta_i of a profile in the published state.
// Semantics match Index.Threshold.
func (s *Server) Threshold(profile int) float64 { return s.state.Load().Threshold(profile) }

// Epoch returns the publication epoch of the published state — the
// version tag of the state reads are served from — or 0 for a negative
// id.
func (s *Server) Epoch(profile int) uint64 { return s.state.Load().Epoch(profile) }

// Pairs returns every retained comparison of the published state in
// canonical order: one walk of its rows, the walk Index.Pairs takes (on
// a quiesced server, byte-identical to Index.Pairs of a cold
// IndexBlocks over the union collection).
func (s *Server) Pairs(ctx context.Context) ([]model.IDPair, error) {
	return s.state.Load().rows.Pairs(ctx)
}

// A View is one published state of the server: the full retained rows
// of one position of the insert sequence. Every read through one View
// observes that state, where the Server's own reads each observe the
// newest state at the time of the call. Views are immutable and safe
// for concurrent use; holding one only pins memory (its rows are
// retained from the garbage collector), never blocks writers.
type View struct {
	rows *shard.Snapshot
	// shares holds the ID, OwnedRows and ResidentBytes of each partition
	// of rows (Snapshot.Share).
	shares []shard.Stats
}

// newView wraps a published state and counts its parts partitions'
// shares of it.
func newView(rows *shard.Snapshot, parts int) *View {
	v := &View{rows: rows, shares: make([]shard.Stats, parts)}
	for i := range v.shares {
		v.shares[i].ID = i
		v.shares[i].OwnedRows, v.shares[i].ResidentBytes = rows.Share(i, parts)
	}
	return v
}

// View returns the published state: one pointer load, which never
// blocks and never waits for a writer, so ctx is unused and the error
// always nil.
func (s *Server) View(ctx context.Context) (*View, error) { return s.state.Load(), nil }

// NumProfiles returns the number of profiles the view covers.
func (v *View) NumProfiles() int { return v.rows.NumProfiles }

// Candidates returns the retained candidate comparisons of one profile
// at the view's state. Semantics match Index.Candidates.
func (v *View) Candidates(profile int) []Candidate {
	return v.AppendCandidates(make([]Candidate, 0, 4), profile)
}

// AppendCandidates appends the retained candidate comparisons of one
// profile to buf at the view's state. Semantics match
// Index.AppendCandidates.
func (v *View) AppendCandidates(buf []Candidate, profile int) []Candidate {
	return v.rows.AppendCandidates(buf, profile)
}

// Threshold returns theta_i of a profile at the view's state. Semantics
// match Index.Threshold.
func (v *View) Threshold(profile int) float64 { return v.rows.Threshold(profile) }

// Epoch returns the publication epoch of the view's state, or 0 for a
// negative id.
func (v *View) Epoch(profile int) uint64 {
	if profile < 0 {
		return 0
	}
	return v.rows.Epoch
}

// Quiesce drives the server to the strongest consistent state: all
// admitted batches applied, published and swapped in. When it returns
// nil, every read observes every insert admitted before the call. It
// places a barrier behind them in the writer's queue and waits for it;
// ctx bounds only the wait. On a closed server Quiesce reports
// shard.ErrClosed (Close already established the drained state).
func (s *Server) Quiesce(ctx context.Context) error { return s.worker.Quiesce(ctx) }

// Blocks returns the writer's live block collection — on a quiesced
// server, the union collection the published state was frozen from. The
// returned collection must not be modified. Call it only after Quiesce
// (or Close): the writer appends to it without a read lock, so the
// caller must not race in-flight batches.
func (s *Server) Blocks() *blocking.Collection { return s.w.app.Collection() }

// Schema returns the Phase 1 artifact the server's collection was
// blocked under (nil for a schema-agnostic run).
func (s *Server) Schema() *Schema { return s.schema }

// Close drains the server: InsertAll calls still queued fail with
// shard.ErrClosed, the group being committed finishes, and the writer
// stops after it applies and publishes every admitted batch. Then it
// syncs and releases the write-ahead log of a durable server, and
// returns the errors encountered. Every resource is released even when
// the writer reports a failure. Reads remain valid on the last
// published state, which covers every admitted profile the writer could
// publish; InsertAll and Quiesce fail after Close. Close is
// idempotent.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	err := s.worker.Close()
	// Final snapshot: with the worker joined, persist the last published
	// state if it sits past the last file on disk. A drained shutdown then
	// leaves a snapshot at the final WAL position, so the next open
	// restores without a rebuild. Safe without locking — the persister is
	// otherwise touched only by the (now exited) worker.
	if st := s.state.Load().rows; s.pers != nil && st.Batches > s.pers.last {
		err = errors.Join(err, s.pers.persistNow(st))
	}
	if s.w.log != nil {
		err = errors.Join(err, s.w.log.Close())
	}
	return err
}
