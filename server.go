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
//   - Reads never touch a writer. Each shard publishes an immutable,
//     epoch-tagged snapshot — the owned rows of what pruning retained,
//     plus the thresholds; nothing of the graph they were pruned from —
//     and swaps it atomically; point reads are hash-routed by profile id
//     to the owning shard and served wait-free from its snapshot, while
//     Pairs fans out over all shards — each enumerating the rows it owns
//     — and merges the ordered streams.
//
// Consistency contract: a read observes a prefix of the insert sequence
// (the one the owning shard had published when the snapshot was swapped
// in). Quiesce establishes the strongest state — every admitted profile
// applied and published on every shard — after which the server's
// Pairs/Candidates/Threshold are byte-identical to a cold IndexBlocks
// over the union collection (enforced by the randomized differential
// tests in server_test.go).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

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
	log     *wal.Log         // nil unless ServerOptions.Dir was set
	pers    []*snapPersister // per-shard, nil entries where persistence is off

	mu     sync.Mutex
	nextID int
	closed bool
}

// Serve runs the full pipeline on the dataset and starts a sharded
// snapshot-swap server over the outcome: InduceSchema, Block, then
// ServeBlocks.
func (p *Pipeline) Serve(ctx context.Context, ds *model.Dataset, sopt ServerOptions) (*Server, error) {
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
// collection, each serving reads from the owned rows of one frozen
// IndexBlocks build (honoring Options.Storage; discarded once sliced).
// Options.Workers reaches every build and export, whose output is
// byte-identical at any worker count. The shards share one aggregate
// exchange; a failing shard poisons it, failing its peers' exports too —
// each shard's rows exist nowhere else, so no healthy subset of shards
// can serve and the server surfaces the failure instead of degrading.
//
// With ServerOptions.Dir set the server is durable: each admitted batch
// is journaled as one record of one write-ahead log before ids are
// returned, published snapshots are persisted on the SnapshotEvery
// cadence, and ServeBlocks over an existing directory recovers the
// pre-crash state: every journaled batch is appended to every shard,
// and the published snapshots are either adopted from disk — a complete
// set at the log's last record, which is what a drained Close leaves —
// or sliced from the one frozen build over the recovered union
// collection. See durable.go for
// the layout and the fail-closed rules.
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
		kind:    c.Kind,
		storage: p.opt.Storage,
		shards:  make([]*shard.Shard, n),
		parts:   make([]*partIndex, n),
		pers:    make([]*snapPersister, n),
		schema:  blocks.Schema,
		nextID:  c.NumProfiles,
	}
	for i := range srv.parts {
		srv.parts[i] = newPartIndex(c.Clone(), blocks.Schema, p.opt, i, n, ex)
	}
	cut := len(replay)
	var snaps []*shard.Snapshot
	if log != nil {
		for k, b := range replay {
			for i, px := range srv.parts {
				if _, err := px.InsertAll(ctx, b); err != nil {
					return nil, fmt.Errorf("blast: wal replay, batch %d on shard %d: %w", k, i, err)
				}
			}
			srv.nextID += len(b)
		}
		snaps = adoptOwnedSnapshots(sopt.Dir, n, cut, srv.nextID)
	}
	if snaps == nil {
		// Nothing adoptable: one frozen build over the union collection,
		// sliced into the shards' owned rows — byte-identical to what
		// their own exchange-driven exports would publish.
		union := &Blocks{Collection: srv.parts[0].app.Collection(), Schema: blocks.Schema}
		ix, err := p.IndexBlocks(ctx, union)
		if err != nil {
			return nil, err
		}
		snaps = make([]*shard.Snapshot, n)
		for i := range snaps {
			snap := shard.SliceOwned(ix.rows, i, n)
			if log != nil {
				maxEpoch := uint64(0)
				for _, name := range snapFileNames(durSnapDir(sopt.Dir, i)) {
					maxEpoch = max(maxEpoch, snapFileEpoch(name))
				}
				if maxEpoch > 0 || cut > 0 {
					// Publish strictly above every file on disk, at the log's
					// record count, so persisting the recovered state clobbers no file
					// a later recovery might still need.
					//blast:allow snapshotmut -- pre-publication tag of a freshly sliced private snapshot; no reader can hold it before shard.New
					snap.Epoch, snap.Batches = maxEpoch+1, int64(cut)
				}
			}
			snaps[i] = snap
		}
	}

	if every := sopt.snapshotEvery(); log != nil && every > 0 {
		for i, snap := range snaps {
			sp := &snapPersister{dir: durSnapDir(sopt.Dir, i), every: every, keep: 2, last: int64(cut)}
			if snap.Epoch > 0 {
				// A recovered state is persisted at once, so the next open
				// adopts it without a rebuild. An adopted snapshot is on
				// disk already; rewriting the same bytes keeps one rule.
				if err := sp.persistNow(snap); err != nil {
					return nil, err
				}
			}
			srv.pers[i] = sp
		}
	}
	for i, px := range srv.parts {
		shOpt := shard.Options{SwapOps: sopt.swapOps(), OnFail: ex.Poison}
		if sp := srv.pers[i]; sp != nil {
			shOpt.Persist = sp.persist
		}
		srv.shards[i] = shard.New(i, px, snaps[i], shOpt)
	}
	srv.log = log
	return srv, nil
}

// NumShards returns the number of shard workers.
func (s *Server) NumShards() int { return len(s.shards) }

// Kind returns the ER setting of the served dataset.
func (s *Server) Kind() model.Kind { return s.kind }

// Storage returns the graph storage mode (Options.Storage) the server
// was configured with. It governs frozen builds only — the build that
// seeds the shards' initial snapshots — and is never a point-in-time
// residency: every published snapshot is resident rows, whose size the
// per-shard ResidentBytes in Stats reports.
func (s *Server) Storage() Storage { return s.storage }

// Admitted returns the number of profiles the server has accepted:
// the build's profiles plus every insert admitted so far, whether or
// not the shards have applied and published them yet.
func (s *Server) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// NumProfiles returns the number of profiles every read is guaranteed
// to observe: the smallest published profile count across the shards.
// After Quiesce it equals Admitted.
func (s *Server) NumProfiles() int {
	n := -1
	for _, sh := range s.shards {
		if p := sh.Snapshot().NumProfiles; n < 0 || p < n {
			n = p
		}
	}
	return n
}

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
// observe it once the owning shard next publishes — a publication falls
// due after ServerOptions.SwapOps applied profiles and covers everything
// the shards had received by then — or at the latest on Quiesce.
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

// InsertAll admits a batch of profiles, assigns their global ids in
// admission order, and broadcasts the batch to every shard worker. The
// broadcast is all-or-nothing — enqueues never block — so every shard
// appends the same insert sequence; ctx guards only
// admission. Ids are returned immediately; application and publication
// are asynchronous: reads observe the batch once the owning shard next
// publishes (due after ServerOptions.SwapOps applied profiles, published
// at the newest batch every shard held when it fell due, at the latest
// on Quiesce or Close — see the consistency contract in the type docs).
func (s *Server) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	if len(profiles) == 0 {
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, shard.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	// One shared deep copy: the workers read the batch asynchronously,
	// so nothing may alias caller memory — copying the Profile structs
	// alone would share the Pairs backing arrays and let a caller
	// reusing its buffers race the appliers. The workers only read the
	// copy, so one serves every shard.
	batch := make([]model.Profile, len(profiles))
	for i := range profiles {
		batch[i] = profiles[i]
		batch[i].Pairs = slices.Clone(profiles[i].Pairs)
	}
	// Durable servers journal the batch before admitting it: once ids
	// are returned the batch survives a crash (to the fsync policy), and
	// a batch that could not be journaled is not admitted at all.
	if s.log != nil {
		if err := s.log.Append(wal.AppendBatch(nil, batch)); err != nil {
			return nil, fmt.Errorf("blast: wal append: %w", err)
		}
	}
	// Enqueues cannot fail here — the server lock excludes Close, and a
	// shard mailbox never rejects otherwise — so the broadcast is
	// atomic: every shard receives the batch or (had Close won the
	// lock) none does.
	for _, sh := range s.shards {
		if err := sh.Enqueue(batch); err != nil {
			return nil, err
		}
	}
	ids := make([]int, len(profiles))
	for i := range ids {
		ids[i] = s.nextID
		s.nextID++
	}
	return ids, nil
}

// owner returns the shard serving a profile's point reads.
func (s *Server) owner(profile int) *shard.Shard {
	return s.shards[shard.Owner(int32(profile), len(s.shards))]
}

// Candidates returns the retained candidate comparisons of one profile
// from the owning shard's published snapshot, ordered by descending
// weight (ties by ascending id). Result semantics match Index.Candidates
// (never nil; out-of-range ids yield an empty slice).
func (s *Server) Candidates(profile int) []Candidate {
	return s.AppendCandidates(make([]Candidate, 0, 4), profile)
}

// AppendCandidates appends the retained candidate comparisons of one
// profile to buf, serving wait-free from the owning shard's published
// snapshot. Semantics match Index.AppendCandidates.
func (s *Server) AppendCandidates(buf []Candidate, profile int) []Candidate {
	if profile < 0 {
		return buf
	}
	return s.owner(profile).Snapshot().AppendCandidates(buf, profile)
}

// Threshold returns theta_i of a profile from the owning shard's
// published snapshot. Semantics match Index.Threshold.
func (s *Server) Threshold(profile int) float64 {
	if profile < 0 {
		return 0
	}
	return s.owner(profile).Snapshot().Threshold(profile)
}

// Epoch returns the publication epoch of the shard owning a profile —
// the version tag of the state its reads are served from.
func (s *Server) Epoch(profile int) uint64 {
	if profile < 0 {
		return 0
	}
	return s.owner(profile).Snapshot().Epoch
}

// consistentSnapshots captures one published snapshot per shard such
// that all sit at the same position of the global insert sequence
// (equal Snapshot.Batches — the owned rows of one state). A plain per-shard capture does not guarantee this:
// shards publish independently, so a pair of loads can observe shard 0
// before batch k and shard 1 after it. The capture is retried
// optimistically a few times (publications are rare relative to reads);
// if writers keep moving the shards it falls back to holding the server
// lock — excluding new admissions — and barriering every shard so all
// publications land at the same final cursor.
func (s *Server) consistentSnapshots(ctx context.Context) ([]*shard.Snapshot, error) {
	capture := func() ([]*shard.Snapshot, bool) {
		snaps := make([]*shard.Snapshot, len(s.shards))
		for i, sh := range s.shards {
			snaps[i] = sh.Snapshot()
			if snaps[i].Batches != snaps[0].Batches {
				return nil, false
			}
		}
		return snaps, true
	}
	for attempt := 0; attempt < 3; attempt++ {
		if snaps, ok := capture(); ok {
			return snaps, nil
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Close stopped the workers; each drains fully on Close, so once
		// every Close has returned the cursors agree. Re-closing is
		// idempotent and waits for exactly that.
		for _, sh := range s.shards {
			_ = sh.Close()
		}
		if snaps, ok := capture(); ok {
			return snaps, nil
		}
		if err := s.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("blast: closed shards disagree on the insert sequence")
	}
	// No admissions can interleave while we hold the lock, so after the
	// barriers every shard has published the full admitted sequence.
	if err := s.barrierAllLocked(ctx); err != nil {
		return nil, err
	}
	if snaps, ok := capture(); ok {
		return snaps, nil
	}
	return nil, errors.New("blast: quiesced shards disagree on the insert sequence")
}

// Pairs returns every retained comparison in canonical order by fanning
// the enumeration out across the shards — each walks only the rows it
// owns in its published snapshot — and merging the ordered streams. The
// per-shard snapshots are captured at one common position of the insert
// sequence, so the result is always a consistent state the server
// actually passed through (on a quiesced server, byte-identical to
// Index.Pairs of a cold IndexBlocks over the union collection).
func (s *Server) Pairs(ctx context.Context) ([]model.IDPair, error) {
	n := len(s.shards)
	snaps, err := s.consistentSnapshots(ctx)
	if err != nil {
		return nil, err
	}
	rows := 0
	for i := range snaps {
		if snaps[i].NumProfiles > rows {
			rows = snaps[i].NumProfiles
		}
	}
	// Hash each row's owner once, shared read-only by every goroutine,
	// instead of n times (once per shard's own enumeration pass).
	owners := make([]uint8, rows)
	for u := range owners {
		owners[u] = uint8(shard.Owner(int32(u), n))
	}
	parts := make([][]model.IDPair, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int, snap *shard.Snapshot) {
			defer wg.Done()
			owns := func(u int32) bool { return owners[u] == uint8(i) }
			parts[i], errs[i] = snap.AppendOwnedPairs(ctx, nil, owns)
		}(i, snaps[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shard.MergePairs(parts), nil
}

// A View is an epoch-consistent read handle over the server: one
// published snapshot per shard, all captured at the same position of
// the global insert sequence, pinned for the view's lifetime. Where the
// Server's own point reads each load the owner's CURRENT snapshot — so
// two reads can observe different states — every read through one View
// observes the single state identified by Batches. Views are immutable
// and safe for concurrent use; holding one only pins memory (the
// snapshots are retained from the garbage collector), never blocks
// writers.
type View struct {
	snaps []*shard.Snapshot
}

// View captures an epoch-consistent read handle. It is served from
// published snapshots when the shards already agree, and otherwise
// barriers them (excluding concurrent admissions for the duration, like
// Quiesce); ctx bounds that wait.
func (s *Server) View(ctx context.Context) (*View, error) {
	snaps, err := s.consistentSnapshots(ctx)
	if err != nil {
		return nil, err
	}
	return &View{snaps: snaps}, nil
}

// owner returns the snapshot holding a profile's rows.
func (v *View) owner(profile int) *shard.Snapshot {
	return v.snaps[shard.Owner(int32(profile), len(v.snaps))]
}

// Batches identifies the state every read of this view observes: its
// position in the globally sequenced insert stream. Two views with
// equal Batches over the same server observe identical state.
func (v *View) Batches() int64 { return v.snaps[0].Batches }

// NumProfiles returns the number of profiles the view covers.
func (v *View) NumProfiles() int { return v.snaps[0].NumProfiles }

// Candidates returns the retained candidate comparisons of one profile
// at the view's state. Semantics match Server.Candidates.
func (v *View) Candidates(profile int) []Candidate {
	return v.AppendCandidates(make([]Candidate, 0, 4), profile)
}

// AppendCandidates appends the retained candidate comparisons of one
// profile to buf at the view's state. Semantics match
// Server.AppendCandidates.
func (v *View) AppendCandidates(buf []Candidate, profile int) []Candidate {
	if profile < 0 {
		return buf
	}
	return v.owner(profile).AppendCandidates(buf, profile)
}

// Threshold returns theta_i of a profile at the view's state. Semantics
// match Server.Threshold.
func (v *View) Threshold(profile int) float64 {
	if profile < 0 {
		return 0
	}
	return v.owner(profile).Threshold(profile)
}

// Epoch returns the publication epoch of the snapshot serving a
// profile's reads in this view. Unlike Batches it is a per-shard
// counter: two profiles of one view may report different epochs, but
// both observe the same state.
func (v *View) Epoch(profile int) uint64 {
	if profile < 0 {
		return 0
	}
	return v.owner(profile).Epoch
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
// must export the same collection state), and it is what makes the post-barrier captures of consistentSnapshots land on one
// cursor. The waits necessarily also run under the lock; barriers are
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

// Close stops the shard workers after they drain every admitted batch,
// syncs and releases the write-ahead log of a durable server, and
// returns the first error encountered. Every resource is released even
// when a shard reports a failure — a dead worker must not leak the
// others or the log. Reads remain valid on the last published
// snapshots; Insert, InsertAll and Quiesce fail after Close. Close is
// idempotent.
func (s *Server) Close() error {
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
	// Final snapshot: with the workers joined, persist each shard's last
	// published snapshot if it sits past the last file on disk. A drained
	// shutdown then leaves snapshots at the final WAL position, so the
	// next open restores without replay. Safe without locking — the
	// persister is otherwise touched only by the (now exited) worker.
	for i, sp := range s.pers {
		if sp == nil || shErrs[i] != nil {
			continue
		}
		if snap := s.shards[i].Snapshot(); snap.Batches > sp.last {
			errs = append(errs, sp.persistNow(snap))
		}
	}
	if s.log != nil {
		errs = append(errs, s.log.Close())
	}
	return firstError(errs)
}
