package blast

// Sharded snapshot-swap serving. A Server scales the candidate-serving
// Index to heavy read traffic by separating the write and read paths
// completely:
//
//   - Writes are globally sequenced and broadcast to N shard workers.
//     Every shard appends every batch to its own clone of the (compact)
//     block collection, but owns only the rows whose profile ids hash
//     onto it: at a publication it builds, weighs and prunes the owned
//     rows alone, resolving the graph-global pruning inputs (degrees,
//     |E|, weight sums, cuts, thresholds) by exchanging compact
//     per-shard aggregates (partition.go).
//   - Reads never touch a writer. Once every shard has exported a state
//     — its owned rows of what pruning retained, nothing of the graph
//     they were pruned from — the server joins the exports into the
//     state's full rows (shard.JoinOwned) and swaps them in behind one
//     atomic pointer. Every read, View and Pairs is one load of it,
//     served wait-free.
//
// Consistency contract: every read observes the newest state all shards
// have published, one position of the insert sequence. Quiesce
// establishes the strongest state — every admitted profile applied and
// published — after which the server's Pairs/Candidates/Threshold are
// byte-identical to a cold IndexBlocks over the union collection
// (enforced by the randomized differential tests in server_test.go).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
)

// Server serves candidate queries from hash-partitioned snapshot-swap
// shards while absorbing streamed profile inserts. Construct with
// Pipeline.Serve or Pipeline.ServeBlocks; always Close a server when
// done (Close stops the shard workers; reads stay valid afterwards).
// All methods are safe for concurrent use.
type Server struct {
	kind    model.Kind
	storage Storage
	shards  []*shard.Shard
	parts   []*partIndex
	schema  *Schema
	log     *wal.Log       // nil unless ServerOptions.Dir was set
	pers    *snapPersister // nil where persistence is off

	state atomic.Pointer[View] // the newest state every shard published

	// gathered holds the shards' exports of the state being published,
	// one slot a shard; have counts the filled slots (see publish).
	gatherMu sync.Mutex
	gathered []*shard.Snapshot
	have     int

	mu     sync.Mutex // admission: ids, shard enqueues, barriers
	nextID int
	closed bool

	wq writeQueue // InsertAll's group commit (admission.go)
}

// Serve runs the full pipeline on the dataset and starts a sharded
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
// mutated: one shard writer per shard over its own clone of the block
// collection, and reads served from the rows of one frozen IndexBlocks
// build (honoring Options.Storage) until the shards first publish.
// Options.Workers reaches every build and export, whose output is
// byte-identical at any worker count. The shards share one aggregate
// exchange; a failing shard poisons it, failing its peers' exports too —
// each shard's rows exist nowhere else, so no healthy subset of shards
// can serve and the server surfaces the failure instead of degrading.
//
// With ServerOptions.Dir set the server is durable: each admitted batch
// is journaled as one record of one write-ahead log before ids are
// returned, published states are persisted on the SnapshotEvery
// cadence, one file each, and ServeBlocks over an existing directory
// recovers the pre-crash state: every journaled batch is appended to
// every shard, and the start state is either adopted from disk — the
// newest file at the log's last record, which is what a drained Close
// leaves — or the one frozen build over the recovered union collection.
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
		if p, log, replay, err = p.openDurable(c, sopt); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				err = errors.Join(err, log.Close())
			}
		}()
	}

	ex := shard.NewExchange(n)
	srv = &Server{
		kind:     c.Kind,
		storage:  p.opt.Storage,
		shards:   make([]*shard.Shard, n),
		parts:    make([]*partIndex, n),
		schema:   blocks.Schema,
		nextID:   c.NumProfiles,
		gathered: make([]*shard.Snapshot, n),
	}
	def := sopt.WithDefaults()
	srv.wq.maxReqs, srv.wq.maxBytes = def.MaxPendingRequests, def.MaxPendingBytes
	for i := range srv.parts {
		srv.parts[i] = newPartIndex(c.Clone(), blocks.Schema, p.opt, i, n, ex)
	}
	cut := len(replay)
	var start *shard.Snapshot
	if log != nil {
		for k, b := range replay {
			for i, px := range srv.parts {
				if _, err := px.InsertAll(ctx, b); err != nil {
					return nil, fmt.Errorf("blast: wal replay, batch %d on shard %d: %w", k, i, err)
				}
			}
			srv.nextID += len(b)
		}
		start = adoptSnapshot(durSnapDir(sopt.Dir), cut, srv.nextID)
	}
	if start == nil {
		// Nothing adoptable: one frozen build over the union collection —
		// byte-identical to the state the shards' exports would join into.
		union := &Blocks{Collection: srv.parts[0].app.Collection(), Schema: blocks.Schema}
		ix, err := p.IndexBlocks(ctx, union)
		if err != nil {
			return nil, err
		}
		start = ix.rows
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
	srv.state.Store(&View{rows: start})
	for i, px := range srv.parts {
		srv.shards[i] = shard.New(i, n, px, start, shard.Options{
			SwapOps: sopt.swapOps(),
			OnFail:  ex.Poison,
			Publish: func(export *shard.Snapshot) error { return srv.publish(i, export) },
		})
	}
	srv.log = log
	return srv, nil
}

// NumShards returns the number of shard workers.
func (s *Server) NumShards() int { return len(s.shards) }

// Kind returns the ER setting of the served dataset.
func (s *Server) Kind() model.Kind { return s.kind }

// Storage returns the graph storage mode (Options.Storage) the server
// was configured with. It governs frozen builds only — the build of the
// server's start state — and is never a point-in-time residency: every
// published state is resident rows, whose size the shards'
// ResidentBytes in Stats sum to.
func (s *Server) Storage() Storage { return s.storage }

// Admitted returns the number of profiles the server has accepted:
// the build's profiles plus every insert admitted so far, whether or
// not the shards have applied and published them yet.
func (s *Server) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// NumProfiles returns the number of profiles the published state
// covers. After Quiesce it equals Admitted.
func (s *Server) NumProfiles() int { return s.state.Load().NumProfiles() }

// Stats returns a point-in-time summary of every shard.
func (s *Server) Stats() []shard.Stats {
	out := make([]shard.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Err returns the first error the serving machinery encountered, if
// any: a broken write-ahead log (an append whose failure could not be
// undone) or a failed shard worker. A non-nil result is sticky and
// fails all further admissions.
func (s *Server) Err() error {
	if s.log != nil {
		if err := s.log.Err(); err != nil {
			return err
		}
	}
	for _, sh := range s.shards {
		if err := sh.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Insert admits one profile and returns its assigned global id. The
// profile is applied asynchronously on every shard's write path; reads
// observe it once the shards next publish — a publication falls due
// after ServerOptions.SwapOps applied profiles and covers everything the
// shards had all received by then — or at the latest on Quiesce.
func (s *Server) Insert(ctx context.Context, p *model.Profile) (int, error) {
	if p == nil {
		return -1, errors.New("blast: Insert requires a non-nil profile")
	}
	ids, err := s.InsertAll(ctx, []model.Profile{*p})
	if len(ids) == 1 {
		return ids[0], err
	}
	return -1, err
}

// publish is every shard's Publish hook: it takes shard i's export of
// the state being gathered and, on the shard that hands over the last
// one, joins the exports into the state's full rows, swaps them in and
// persists them when SnapshotEvery says so. Exports are collective — no
// shard can finish exporting the next state before every shard handed
// this one over, since the export's exchange rounds need them all — so
// one state is gathered at a time, and states are swapped in in order.
func (s *Server) publish(i int, export *shard.Snapshot) error {
	s.gatherMu.Lock()
	s.gathered[i] = export
	if s.have++; s.have < len(s.gathered) {
		s.gatherMu.Unlock()
		return nil
	}
	parts := s.gathered
	s.gathered, s.have = make([]*shard.Snapshot, len(parts)), 0
	s.gatherMu.Unlock()
	state, err := shard.JoinOwned(parts)
	if err != nil {
		return err
	}
	s.state.Store(&View{rows: state})
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
// the shards' exports of one position of the insert sequence joined
// into. Every read through one View observes that state, where the
// Server's own reads each observe the newest state at the time of the
// call. Views are immutable and safe for concurrent use; holding one
// only pins memory (its rows are retained from the garbage collector),
// never blocks writers.
type View struct {
	rows *shard.Snapshot
}

// View returns the published state: one pointer load, which never
// blocks and never waits for a writer, so ctx is unused and the error
// always nil.
func (s *Server) View(ctx context.Context) (*View, error) { return s.state.Load(), nil }

// Batches identifies the state every read of this view observes: its
// position in the globally sequenced insert stream. Two views with
// equal Batches over the same server observe identical state.
func (v *View) Batches() int64 { return v.rows.Batches }

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

// Quiesce drives every shard to the strongest consistent state: all
// admitted batches applied, snapshots published and swapped. When
// it returns nil, every read (on any shard) observes every insert
// admitted before the call. Barriers are placed on all shards at one
// position of the insert sequence and awaited concurrently; ctx bounds
// only the wait. On a closed server Quiesce reports shard.ErrClosed
// (Close already established the drained state).
func (s *Server) Quiesce(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return shard.ErrClosed
	}
	err := s.barrierAllLocked(ctx)
	s.mu.Unlock()
	return err
}

// barrierAllLocked enqueues a barrier on every shard and awaits them
// all, reporting the most meaningful failure (see firstError). The
// caller must hold s.mu across the call: holding the admission lock
// through the enqueue phase places every shard's barrier at the SAME
// position of the global insert sequence — the shards depend on it
// (barrier-forced exports run the aggregate exchange, so all shards
// must export the same collection state), and it is what makes the
// state the last barrier's export completes cover every admission. The
// waits necessarily also run under the lock; barriers are
// bounded by shard progress, not by future admissions, so this cannot
// deadlock.
func (s *Server) barrierAllLocked(ctx context.Context) error {
	n := len(s.shards)
	errs := make([]error, n)
	waits := make([]<-chan error, n)
	for i, sh := range s.shards {
		waits[i], errs[i] = sh.BarrierStart()
	}
	var wg sync.WaitGroup
	for i := range s.shards {
		if errs[i] != nil || waits[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case err := <-waits[i]:
				errs[i] = err
			case <-ctx.Done():
				errs[i] = ctx.Err()
			}
		}(i)
	}
	wg.Wait()
	return firstError(errs)
}

// firstError picks the most meaningful error out of a per-shard batch:
// a real failure (a sticky worker error, a context timeout) beats the
// bare shard.ErrClosed that healthy shards report when racing Close.
func firstError(errs []error) error {
	var closed error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, shard.ErrClosed) {
			closed = err
			continue
		}
		return err
	}
	return closed
}

// Blocks returns the live block collection of the first shard — on a
// quiesced server, the union collection every shard agrees on. The
// returned collection must not be modified. Call it only after Quiesce
// (or Close): shard writers append to their collections without a read
// lock, so the caller must not race in-flight batches.
func (s *Server) Blocks() *blocking.Collection { return s.parts[0].app.Collection() }

// Schema returns the Phase 1 artifact the server's shards were blocked
// under (nil for a schema-agnostic run).
func (s *Server) Schema() *Schema { return s.schema }

// Close drains the server: InsertAll calls still queued fail with
// shard.ErrClosed, the group being committed finishes, and the shard
// workers stop after they apply and publish every admitted batch. Then
// it syncs and releases the write-ahead log of a durable server, and
// returns the first error encountered. Every resource is released even
// when a shard reports a failure — a dead worker must not leak the
// others or the log. Reads remain valid on the last published state,
// which covers every admitted profile; Insert, InsertAll and Quiesce
// fail after Close. Close is idempotent.
func (s *Server) Close() error {
	s.wq.close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	errs := make([]error, 0, len(s.shards)+1)
	shErrs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard.Shard) {
			defer wg.Done()
			shErrs[i] = sh.Close()
		}(i, sh)
	}
	wg.Wait()
	errs = append(errs, shErrs...)
	// Final snapshot: with the workers joined, persist the last published
	// state if it sits past the last file on disk. A drained shutdown then
	// leaves a snapshot at the final WAL position, so the next open
	// restores without a rebuild. Safe without locking — the persister is
	// otherwise touched only by the (now exited) workers.
	if st := s.state.Load().rows; s.pers != nil && st.Batches > s.pers.last {
		errs = append(errs, s.pers.persistNow(st))
	}
	if s.log != nil {
		errs = append(errs, s.log.Close())
	}
	return firstError(errs)
}
