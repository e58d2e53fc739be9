package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blast/internal/model"
)

// Writer is the mutable side of a shard: a writable index that absorbs
// insert batches and exports the rows the shard owns at its current
// state. Only the shard's worker goroutine ever calls these methods, so
// implementations need no locking beyond their own invariants.
type Writer interface {
	// InsertAll appends a batch of profiles and folds them into the
	// writable index.
	InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error)
	// Agree is called when a publication falls due, with the number of
	// insert batches this shard's mailbox has received so far, and
	// returns the batch position the publication covers: the shard
	// applies through it and only then exports. A writer whose exports
	// are its own returns received unchanged — publish once the backlog
	// already admitted is in. A writer whose exports must line up with
	// its peers' (partitioned sharding) returns the smallest count any
	// of them received (Exchange.AgreeMin), the newest state they all
	// hold. The result lies between the shard's current position and
	// received, so the shard never waits for input to reach it.
	Agree(received int64) (int64, error)
	// Export returns the shard's export of the current state: its owned
	// rows and the state's global counters and thresholds. The shard
	// assigns Epoch and Batches.
	Export(ctx context.Context) (*Snapshot, error)
}

// Options tunes a shard's snapshot-swap policy. A publication falls due
// once SwapOps profiles have been applied since the last one; it is
// published at the batch position
// Writer.Agree returns at that moment — the newest state every shard of
// the server already held — and at the latest at the next barrier or
// Close, whichever the worker meets first.
type Options struct {
	// SwapOps makes a publication fall due once this many profiles have
	// been applied since the last one. <= 0 disables the op-count
	// trigger.
	SwapOps int
	// Publish, when non-nil, is handed every export from the worker
	// goroutine, tagged with its epoch and batch position; the shard
	// keeps none of its rows. An error is sticky: the shard reports it
	// like an apply error.
	Publish func(*Snapshot) error
	// OnFail, when non-nil, is invoked exactly once, from the worker
	// goroutine and outside the shard lock, at the moment the shard's
	// sticky error is first set. It is the failure hook of partitioned
	// serving: a dead partitioned shard can never again contribute to an
	// exchange round, so the hook poisons the exchange and the
	// sibling exports fail instead of waiting forever.
	OnFail func(error)
}

// Stats is a point-in-time summary of one shard.
type Stats struct {
	// ID is the shard's index within its server.
	ID int
	// Epoch is the epoch of the shard's last publication (or of the
	// server's start state before the first).
	Epoch uint64
	// Published is the profile count of that state.
	Published int
	// Applied is the number of profiles the worker has applied to the
	// writable index (published or not).
	Applied int64
	// Batches is the shard's position in the globally sequenced insert
	// stream: the start state's plus the batches applied successfully.
	Batches int64
	// Swaps counts snapshot publications after the initial one.
	Swaps int64
	// Queued is the number of operations waiting in the mailbox.
	Queued int
	// ApplyTime is the cumulative wall-clock time spent applying insert
	// batches (excluding snapshot export).
	ApplyTime time.Duration
	// OwnedRows and ResidentBytes are the shard's share of the state
	// Epoch names (Snapshot.Share): the rows Owner hashes onto it, and
	// 12 bytes a retained entry of those rows plus 16 bytes a row. Summed
	// over a server's shards they are the published state's.
	OwnedRows     int
	ResidentBytes int64
}

// ErrClosed is returned by operations on a shard (or server) that has
// been closed.
var ErrClosed = errors.New("shard: closed")

// op is one mailbox entry: an insert batch, a barrier, or both legs nil
// (never enqueued). A barrier asks the worker to publish a snapshot
// covering everything applied so far and report completion.
type op struct {
	profiles []model.Profile
	barrier  chan error
}

// Shard is one partition of a snapshot-swap server: a single worker
// goroutine drains a mailbox of insert batches into the writable index
// and hands its exports over to the Publish hook. A publication falls
// due after Options.SwapOps applied profiles; the worker then asks its
// Writer how far the server's shards have all been fed (Writer.Agree),
// keeps applying through that batch and exports there — one export for
// the whole backlog instead of one per SwapOps window, each of which
// would be stale before it was swapped in. The target is fixed when the
// publication falls due, so a writer that never pauses cannot postpone
// it; a barrier or the Close drain met on the way publishes on the spot.
// Mailbox enqueues are non-blocking (the queue is unbounded); writes are
// therefore all-or-nothing across the shards of a server, which is what
// keeps their insert sequences aligned.
type Shard struct {
	id, n int // the shard's index and its server's shard count
	w     Writer
	opt   Options

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []op
	closed    bool
	err       error // first apply/agree/publish error; sticky
	received  int64 // stream position of the last batch enqueued
	applied   int64
	batches   int64 // stream position of the last batch applied
	swaps     int64
	applyTime time.Duration
	// The last publication's tag and the shard's share of it.
	epoch     uint64
	published int
	ownedRows int
	resident  int64

	// sinceSwap counts profiles applied since the last publication;
	// publishAt, when non-zero, is the batch position the due publication
	// was agreed to cover. Both worker-goroutine-local; no lock needed.
	sinceSwap int
	publishAt int64

	stopped chan struct{}
}

// New starts worker id of a server's n shards over a writable index
// that holds the server's start state: its epoch and batch position are
// where the shard's publications and stream position continue from.
func New(id, n int, w Writer, start *Snapshot, opt Options) *Shard {
	s := &Shard{
		id:        id,
		n:         n,
		w:         w,
		opt:       opt,
		received:  start.Batches,
		batches:   start.Batches,
		epoch:     start.Epoch,
		published: start.NumProfiles,
		stopped:   make(chan struct{}),
	}
	s.ownedRows, s.resident = start.Share(id, n)
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// Err returns the first error the worker encountered, if any.
func (s *Shard) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns a point-in-time summary of the shard.
func (s *Shard) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		ID:            s.id,
		Epoch:         s.epoch,
		Published:     s.published,
		Applied:       s.applied,
		Batches:       s.batches,
		Swaps:         s.swaps,
		Queued:        len(s.queue),
		ApplyTime:     s.applyTime,
		OwnedRows:     s.ownedRows,
		ResidentBytes: s.resident,
	}
}

// Enqueue hands an insert batch to the worker. It never blocks (the
// mailbox is unbounded) and fails only on a closed shard — in
// particular NOT on a shard whose worker has already failed, so a
// caller broadcasting one batch to many shards under a lock that
// excludes Close either enqueues it on all of them or on none. A
// failed shard silently drops the batches it receives (see apply);
// callers observe the failure through Err, a barrier and their own
// pre-checks. The shard reads the batch asynchronously; callers must
// not mutate it after handoff.
func (s *Shard) Enqueue(profiles []model.Profile) error {
	if len(profiles) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.queue = append(s.queue, op{profiles: profiles})
	s.received++
	s.cond.Signal()
	return nil
}

// BarrierStart enqueues a publication barrier without waiting and
// returns its completion channel (buffered; the worker's send never
// blocks). Splitting enqueue from wait lets a server place barriers on
// ALL of its shards atomically under its own admission lock — the only
// way partitioned shards are guaranteed to export at the same position
// of the insert stream, which their aggregate exchange requires — and
// then wait outside the lock.
func (s *Shard) BarrierStart() (<-chan error, error) {
	done := make(chan error, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.queue = append(s.queue, op{barrier: done})
	s.cond.Signal()
	return done, nil
}

// Close stops the worker after draining every operation already in the
// mailbox and publishing what it applied, waits for it to exit, and
// returns the shard's sticky error. Enqueue and BarrierStart fail with
// ErrClosed afterwards.
func (s *Shard) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.stopped
	return s.Err()
}

// next blocks until an operation is available or the shard is closed
// with an empty mailbox. Closing drains: queued operations are still
// returned after Close.
func (s *Shard) next() (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return op{}, false
	}
	o := s.queue[0]
	s.queue[0] = op{} // release the batch to the GC as the queue drains
	s.queue = s.queue[1:]
	return o, true
}

// loop is the shard worker: apply, check the swap policy, honor
// barriers. Application runs under the background context — once a
// batch is enqueued on every shard it must be applied on every shard,
// or the shards would diverge; cancellation governs only the enqueue and
// wait paths.
func (s *Shard) loop() {
	defer close(s.stopped)
	for {
		o, ok := s.next()
		if !ok {
			// Final drain complete: publish anything applied since the
			// last swap so post-Close reads observe the full admitted
			// sequence — every shard does the same at the same position,
			// so the server's last state covers it. The error (if any)
			// is sticky and surfaces through Close/Err.
			_ = s.publishIfBehind()
			return
		}
		if len(o.profiles) > 0 {
			s.apply(o.profiles)
		}
		if o.barrier != nil {
			o.barrier <- s.publishIfBehind()
		}
	}
}

// apply folds one insert batch into the writable index and runs the
// publication policy. A shard that has already failed drops the batch
// and takes no part in any agreement: its writable index may sit in the
// aftermath of the failed apply, and pretending to continue would
// publish state the healthy shards never converge with.
//
// The policy: when a publication falls due the writer is asked, once,
// which batch position it covers (Writer.Agree); the shard publishes
// when it has applied through that position. With no backlog behind the
// due batch that is at once; under a burst it is one export at the
// newest state the server's shards all held instead of one per SwapOps
// window. Every shard of a partitioned server reaches the same due
// points (publications are aligned, so the counts since them are too)
// and receives the same answer, which is what keeps their exports — and
// the exchange rounds inside them — aligned.
func (s *Shard) apply(profiles []model.Profile) {
	if s.Err() != nil {
		return
	}
	t0 := telemetryNow()
	_, err := s.w.InsertAll(context.Background(), profiles)
	dt := telemetryNow().Sub(t0)
	s.mu.Lock()
	s.applied += int64(len(profiles))
	s.applyTime += dt
	if err == nil && s.err == nil {
		s.batches++
	}
	pos, received := s.batches, s.received
	s.mu.Unlock()
	if err != nil {
		s.setErr(fmt.Errorf("shard %d: apply: %w", s.id, err))
		return
	}
	s.sinceSwap += len(profiles)
	if s.publishAt == 0 && s.due() {
		if s.publishAt, err = s.w.Agree(received); err != nil {
			s.setErr(fmt.Errorf("shard %d: agree: %w", s.id, err))
			return
		}
	}
	if s.publishAt != 0 && pos >= s.publishAt {
		s.publish()
	}
}

// due reports whether a publication falls due: enough profiles applied
// since the last one.
func (s *Shard) due() bool {
	return s.opt.SwapOps > 0 && s.sinceSwap >= s.opt.SwapOps
}

// publishIfBehind publishes only when unpublished applications exist —
// a quiesce on an idle shard costs nothing — and reports the shard's
// sticky error either way.
func (s *Shard) publishIfBehind() error {
	if err := s.Err(); err != nil {
		return err
	}
	if s.sinceSwap == 0 {
		return nil
	}
	return s.publish()
}

// publish exports the shard's rows from the writer, tags the export
// with the next epoch and the insert-stream position it covers, counts
// the shard's share of it and hands it to the Publish hook. It settles
// any publication that was due: whatever position it was agreed for, the
// state just published is newer than the one that made it fall due.
func (s *Shard) publish() error {
	snap, err := s.w.Export(context.Background())
	if err != nil {
		return s.setErr(fmt.Errorf("shard %d: export: %w", s.id, err))
	}
	rows, bytes := snap.Share(s.id, s.n)
	s.mu.Lock()
	s.epoch++
	s.swaps++
	s.published, s.ownedRows, s.resident = snap.NumProfiles, rows, bytes
	//blast:allow snapshotmut -- tagging a freshly exported snapshot the writer just handed over; no reader sees it before the hand-off below
	snap.Epoch, snap.Batches = s.epoch, s.batches
	s.mu.Unlock()
	s.sinceSwap, s.publishAt = 0, 0
	if s.opt.Publish != nil {
		if err := s.opt.Publish(snap); err != nil {
			return s.setErr(fmt.Errorf("shard %d: publish: %w", s.id, err))
		}
	}
	return nil
}

// setErr records the worker's first (sticky) error and fires the OnFail
// hook exactly once, outside the lock; later calls return the original
// error unchanged. Only the worker goroutine calls it, so "first" is
// also "only" within one shard.
func (s *Shard) setErr(err error) error {
	s.mu.Lock()
	first := s.err == nil
	if first {
		s.err = err
	}
	err = s.err
	s.mu.Unlock()
	if first && s.opt.OnFail != nil {
		s.opt.OnFail(err)
	}
	return err
}

// telemetryNow reads the wall clock for apply-timing telemetry
// (Stats.ApplyTime). It is the package's single audited wall-clock
// read: durations are reported through Stats, never folded into any
// served value, so the determinism contract is untouched.
func telemetryNow() time.Time {
	//blast:allow wallclock -- telemetry clock: apply timings are reported via Stats, never feed a pinned computation
	return time.Now()
}
