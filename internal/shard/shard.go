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
// insert batches and exports the frozen state at its current position.
// Only the shard's worker goroutine ever calls these methods, so
// implementations need no locking beyond their own invariants.
type Writer interface {
	// InsertAll appends a batch of profiles and folds them into the
	// writable index.
	InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error)
	// Export returns the frozen state at the current position: its rows
	// and global counters and thresholds. The shard assigns Epoch and
	// Batches.
	Export(ctx context.Context) (*Snapshot, error)
}

// Options tunes a shard's snapshot-swap policy. A publication falls due
// once SwapOps profiles have been applied since the last one; it is
// published at the batch position the mailbox had received at that
// moment, and at the latest at the next barrier or Close, whichever the
// worker meets first.
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
}

// Stats is a point-in-time summary of a shard's writer and of one
// partition of the state it published. Shard.Stats fills the writer's
// counters; ID, OwnedRows and ResidentBytes are the partition's, filled
// by the server that divides the state.
type Stats struct {
	// ID is the partition's index within its server.
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
	// OwnedRows and ResidentBytes are the partition's share of the
	// published state (Snapshot.Share): the rows Owner hashes onto it,
	// and 12 bytes a retained entry of those rows plus 16 bytes a row.
	// Summed over a server's partitions they are the published state's.
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

// Shard is the writer of a snapshot-swap server: a single worker
// goroutine drains a mailbox of insert batches into the writable index
// and hands its exports over to the Publish hook. A publication falls
// due after Options.SwapOps applied profiles; the worker then notes how
// many batches the mailbox has received, keeps applying through that
// batch and exports there — one export for the whole backlog instead of
// one per SwapOps window, each of which would be stale before it was
// swapped in. The target is fixed when the publication falls due, so a
// writer that never pauses cannot postpone it; a barrier or the Close
// drain met on the way publishes on the spot.
type Shard struct {
	w   Writer
	opt Options

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []op
	closed    bool
	err       error // first apply/export/publish error; sticky
	received  int64 // stream position of the last batch enqueued
	applied   int64
	batches   int64 // stream position of the last batch applied
	swaps     int64
	applyTime time.Duration
	// The last publication's tag.
	epoch     uint64
	published int

	// sinceSwap counts profiles applied since the last publication;
	// publishAt, when non-zero, is the batch position the due publication
	// covers. Both worker-goroutine-local; no lock needed.
	sinceSwap int
	publishAt int64

	stopped chan struct{}
}

// New starts the worker over a writable index that holds the server's
// start state: its epoch and batch position are where the shard's
// publications and stream position continue from.
func New(w Writer, start *Snapshot, opt Options) *Shard {
	s := &Shard{
		w:         w,
		opt:       opt,
		received:  start.Batches,
		batches:   start.Batches,
		epoch:     start.Epoch,
		published: start.NumProfiles,
		stopped:   make(chan struct{}),
	}
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

// Stats returns a point-in-time summary of the writer's counters; the
// partition fields are zero.
func (s *Shard) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Epoch:     s.epoch,
		Published: s.published,
		Applied:   s.applied,
		Batches:   s.batches,
		Swaps:     s.swaps,
		Queued:    len(s.queue),
		ApplyTime: s.applyTime,
	}
}

// Enqueue hands an insert batch to the worker. It never blocks (the
// mailbox is unbounded) and fails only on a closed shard — NOT on one
// whose worker has already failed: a failed shard silently drops the
// batches it receives (see apply), and callers observe the failure
// through Err, a barrier and their own pre-checks. The shard reads the
// batch asynchronously; callers must not mutate it after handoff.
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
// blocks), so the caller may abandon the wait.
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
// barriers. Application runs under the background context — a batch
// once enqueued is admitted and must be applied; cancellation governs
// only the enqueue and wait paths.
func (s *Shard) loop() {
	defer close(s.stopped)
	for {
		o, ok := s.next()
		if !ok {
			// Final drain complete: publish anything applied since the
			// last swap so post-Close reads observe the full admitted
			// sequence. The error (if any) is sticky and surfaces
			// through Close/Err.
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
// publication policy. A shard that has already failed drops the batch:
// its writable index may sit in the aftermath of the failed apply, and
// publishing from it would serve state no cold build reproduces.
//
// The policy: when a publication falls due it is fixed to the batch
// position the mailbox has received at that moment; the shard publishes
// when it has applied through that position. With no backlog behind the
// due batch that is at once; under a burst it is one export covering
// the backlog instead of one per SwapOps window.
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
		s.setErr(fmt.Errorf("shard: apply: %w", err))
		return
	}
	s.sinceSwap += len(profiles)
	if s.publishAt == 0 && s.due() {
		s.publishAt = received
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

// publish exports the state from the writer, tags it with the next
// epoch and the insert-stream position it covers and hands it to the
// Publish hook. It settles any publication that was due: whatever
// position it was fixed to, the state just published is newer than the
// one that made it fall due.
func (s *Shard) publish() error {
	snap, err := s.w.Export(context.Background())
	if err != nil {
		return s.setErr(fmt.Errorf("shard: export: %w", err))
	}
	s.mu.Lock()
	s.epoch++
	s.swaps++
	s.published = snap.NumProfiles
	//blast:allow snapshotmut -- tagging a freshly exported snapshot the writer just handed over; no reader sees it before the hand-off below
	snap.Epoch, snap.Batches = s.epoch, s.batches
	s.mu.Unlock()
	s.sinceSwap, s.publishAt = 0, 0
	if s.opt.Publish != nil {
		if err := s.opt.Publish(snap); err != nil {
			return s.setErr(fmt.Errorf("shard: publish: %w", err))
		}
	}
	return nil
}

// setErr records the worker's first (sticky) error; later calls return
// the original error unchanged.
func (s *Shard) setErr(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// telemetryNow reads the wall clock for apply-timing telemetry
// (Stats.ApplyTime). It is the package's single audited wall-clock
// read: durations are reported through Stats, never folded into any
// served value, so the determinism contract is untouched.
func telemetryNow() time.Time {
	//blast:allow wallclock -- telemetry clock: apply timings are reported via Stats, never feed a pinned computation
	return time.Now()
}
