package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"blast/internal/model"
)

// Writer is the mutable side of a shard: a writable index that absorbs
// insert batches and exports the frozen state at its current position.
// Journal runs on the admitting goroutine at the head of the queue, one
// call at a time, and InsertAll and Export only on the worker goroutine,
// so implementations need no locking beyond their own invariants.
type Writer interface {
	// Journal commits one group of calls. take closes the group — every
	// call queued at that moment — and returns its profiles in queue
	// order; Journal calls it exactly once, then makes what it returned
	// durable (or nothing, for a writer without a log). An error fails
	// every call of the group, and nothing of it is admitted.
	Journal(take func() []model.Profile) error
	// InsertAll appends a batch of profiles and folds them into the
	// writable index.
	InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error)
	// Export returns the frozen state at the current position: its rows
	// and global counters and thresholds. The shard assigns Epoch and
	// Batches.
	Export(ctx context.Context) (*Snapshot, error)
}

// Options tunes a shard's admission bounds and snapshot-swap policy. A
// publication falls due once SwapOps profiles have been applied since
// the last one; it is published at the batch position committed at that
// moment, and at the latest at the next barrier or Close, whichever the
// worker meets first.
type Options struct {
	// SwapOps makes a publication fall due once this many profiles have
	// been applied since the last one. <= 0 disables the op-count
	// trigger.
	SwapOps int
	// MaxRequests and MaxBytes bound the calls admitted and not yet
	// applied, and the bytes their callers estimated for them; a call
	// past either fails with ErrOverloaded. <= 0 leaves a bound off.
	MaxRequests int
	MaxBytes    int64
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
	// Queued is the number of committed batches and barriers waiting for
	// the worker. A batch holds its calls' admission budget until it is
	// applied, so the batches never outnumber Options.MaxRequests.
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

// WriteStats is a point-in-time summary of a shard's write queue (and
// of blast.Server's, which aliases this type).
type WriteStats struct {
	// Batches is the number of groups committed so far: one
	// write-ahead-log record each on a durable server. The coalescing
	// ratio is AdmittedProfiles/Batches.
	Batches int64 `json:"batches"`
	// AdmittedProfiles counts the profiles Commit admitted.
	AdmittedProfiles int64 `json:"admitted_profiles"`
	// CoalescedRequests counts the calls committed in a group with at
	// least one other call.
	CoalescedRequests int64 `json:"coalesced_requests"`
	// Rejected counts the calls refused with ErrOverloaded.
	Rejected int64 `json:"rejected"`
	// Canceled counts the calls whose context ended while they were
	// queued; nothing of them was admitted.
	Canceled int64 `json:"canceled"`
	// PendingRequests and PendingBytes are the level the admission
	// bounds apply to: the calls admitted and not yet applied by the
	// worker — queued, committing, or committed and waiting — and their
	// estimated size.
	PendingRequests int   `json:"pending_requests"`
	PendingBytes    int64 `json:"pending_bytes"`
}

var (
	// ErrClosed is returned by operations on a shard (or server) that
	// has been closed.
	ErrClosed = errors.New("shard: closed")
	// ErrOverloaded is returned by Commit when admitting the call would
	// take the calls admitted and not yet applied past Options.MaxRequests
	// or MaxBytes.
	ErrOverloaded = errors.New("shard: write queue full")
)

// op is one entry of the queue: a Commit call, a committed batch (the
// profiles, count and bytes of its calls) or a barrier. A call's taken,
// done, ids and err are guarded by Shard.mu.
type op struct {
	ctx         context.Context
	profiles    []model.Profile
	calls       int
	bytes       int64
	taken, done bool // a call's: in the group committing; ids or err final
	ids         []int
	err         error
	wake        chan struct{} // a call's: signalled when it may take the head, or is done
	barrier     chan error    // a barrier's: the worker publishes and reports here
}

// Shard is the writer of a snapshot-swap server: one queue carries every
// insert from admission to the writable index. At its front no goroutine
// of its own: the call at the head commits every call queued behind it
// as one batch — one Writer.Journal, then ids from the stream position.
// The batch stays queued until a single worker goroutine has applied
// it, and its calls count against Options.MaxRequests and MaxBytes
// until then, so a writer behind by the budget refuses new calls
// instead of queueing them without bound. The worker hands its exports
// over to the Publish hook.
//
// A publication falls due after Options.SwapOps applied profiles; the
// worker then notes how many batches have been committed, keeps applying
// through that batch and exports there — one export for the whole
// backlog instead of one per SwapOps window, each of which would be
// stale before it was swapped in. The target is fixed when the
// publication falls due, so a writer that never pauses cannot postpone
// it; a barrier or the Close drain met on the way publishes on the spot.
type Shard struct {
	w   Writer
	opt Options

	mu   sync.Mutex
	work *sync.Cond // the worker waits on it for a batch, a barrier or the end
	// queue holds the committed batches and barriers, queue[:ready], the
	// worker's in order; then the calls queued, in arrival order. The
	// calls of the group committing are out of it until they settle.
	queue     []*op
	ready     int
	leading   bool // a call holds the head: a group is committing
	closed    bool
	err       error // first apply/export/publish error; sticky
	nextID    int   // the global id of the next profile committed
	committed int64 // stream position of the last batch committed
	applied   int64
	batches   int64 // stream position of the last batch applied
	swaps     int64
	applyTime time.Duration
	admission WriteStats
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
// start state: its profile count, epoch and batch position are where the
// shard's ids, publications and stream position continue from.
func New(w Writer, start *Snapshot, opt Options) *Shard {
	s := &Shard{
		w:         w,
		opt:       opt,
		nextID:    start.NumProfiles,
		committed: start.Batches,
		batches:   start.Batches,
		epoch:     start.Epoch,
		published: start.NumProfiles,
		stopped:   make(chan struct{}),
	}
	s.work = sync.NewCond(&s.mu)
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
		Queued:    s.ready,
		ApplyTime: s.applyTime,
	}
}

// WriteStats snapshots the admission counters.
func (s *Shard) WriteStats() WriteStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admission
}

// Admitted returns the start state's profile count plus every profile
// committed so far, applied or not.
func (s *Shard) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// Commit admits one call's profiles, of bytes estimated size: it queues
// them, commits them in the next group and returns their global ids,
// contiguous and in queue order. The shard reads the profiles
// asynchronously; the caller must not mutate them after the call. An
// error means nothing was admitted: ErrClosed, a failed writer's sticky
// error, ErrOverloaded, ctx's error while the call is queued, or its
// group's Journal error. A call taken into a group waits out the
// group's commit.
func (s *Shard) Commit(ctx context.Context, profiles []model.Profile, bytes int64) ([]int, error) {
	if len(profiles) == 0 {
		return nil, ctx.Err()
	}
	c := &op{ctx: ctx, profiles: profiles, calls: 1, bytes: bytes, wake: make(chan struct{}, 1)}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, ErrClosed
	case s.err != nil:
		return nil, s.err
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case s.opt.MaxRequests > 0 && s.admission.PendingRequests >= s.opt.MaxRequests,
		s.opt.MaxBytes > 0 && s.admission.PendingBytes+bytes > s.opt.MaxBytes:
		s.admission.Rejected++
		return nil, ErrOverloaded
	}
	s.queue = append(s.queue, c)
	s.admission.PendingRequests++
	s.admission.PendingBytes += bytes
	ctxDone := ctx.Done()
	for !c.done {
		if !c.taken && !s.leading {
			// The head is free: this call commits the group. One whose
			// ctx has ended still commits those behind it; take drops it.
			s.leading = true
			s.mu.Unlock()
			s.commit()
			s.mu.Lock()
			continue
		}
		s.mu.Unlock()
		select {
		case <-c.wake:
		case <-ctxDone:
			ctxDone = nil // a call already taken waits out its group
		}
		s.mu.Lock()
		// A call that gives up leaves the queue, unless the head is free:
		// it may be the one the head was handed to, so it commits first.
		if !c.done && !c.taken && s.leading && ctx.Err() != nil {
			s.queue = slices.DeleteFunc(s.queue, func(o *op) bool { return o == c })
			s.admission.Canceled++
			s.finish(c, ctx.Err())
		}
	}
	return c.ids, c.err
}

// commit runs on the caller at the head of the queue. It has the writer
// journal one group (take) and settles it: on success one batch joins
// the worker's part of the queue and the calls get their ids, otherwise
// every call gets the error. Then it frees the head for the next call.
func (s *Shard) commit() {
	var group []*op
	var batch []model.Profile
	err := s.w.Journal(func() []model.Profile {
		s.mu.Lock()
		defer s.mu.Unlock()
		group, batch = s.take()
		return batch
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err != nil:
		for _, c := range group {
			s.finish(c, err)
		}
	case len(group) > 0:
		b := &op{profiles: batch, calls: len(group)}
		for _, c := range group {
			b.bytes += c.bytes
			c.ids = make([]int, len(c.profiles))
			for i := range c.ids {
				c.ids[i] = s.nextID
				s.nextID++
			}
			c.done = true
			wake(c)
		}
		s.queue = slices.Insert(s.queue, s.ready, b)
		s.ready++
		s.committed++
		s.admission.Batches++
		s.admission.AdmittedProfiles += int64(len(batch))
		if len(group) > 1 {
			s.admission.CoalescedRequests += int64(len(group))
		}
	}
	s.leading = false
	if len(s.queue) > s.ready {
		wake(s.queue[s.ready]) // the next call queued takes the head
	}
	s.work.Signal() // a new batch, or the head settled for a closing worker
}

// take closes the group: it takes every call queued out of the queue,
// drops those whose context has ended, and returns the rest with their
// profiles joined. A closed shard or a failed writer fails them all
// instead. The caller holds s.mu.
func (s *Shard) take() ([]*op, []model.Profile) {
	var group []*op
	var batch []model.Profile
	for _, c := range s.queue[s.ready:] {
		switch {
		case c.ctx.Err() != nil:
			s.admission.Canceled++
			s.finish(c, c.ctx.Err())
		case s.closed:
			s.finish(c, ErrClosed)
		case s.err != nil:
			s.finish(c, s.err)
		default:
			c.taken = true
			group = append(group, c)
			batch = append(batch, c.profiles...)
		}
	}
	s.queue = slices.Delete(s.queue, s.ready, len(s.queue))
	return group, batch
}

// finish fails a call, which admitted nothing: it releases the call's
// share of the bounds and wakes its caller. The caller holds s.mu.
func (s *Shard) finish(c *op, err error) {
	c.err, c.done = err, true
	s.admission.PendingRequests--
	s.admission.PendingBytes -= c.bytes
	wake(c)
}

// wake signals a call's caller without blocking: the caller re-reads
// its state under s.mu, so one pending signal covers any number.
func wake(c *op) {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Quiesce places a publication barrier behind every committed batch —
// ahead of the calls still queued, which are not admitted yet — and
// waits until the worker has applied them and published: then the
// published state covers every call Commit returned ids for before
// Quiesce was called. ctx bounds only the wait; the barrier still
// completes. After Close it reports ErrClosed.
func (s *Shard) Quiesce(ctx context.Context) error {
	done := make(chan error, 1) // buffered: the worker's send never blocks
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.queue = slices.Insert(s.queue, s.ready, &op{barrier: done})
	s.ready++
	s.work.Signal()
	s.mu.Unlock()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the shard: calls still queued fail with ErrClosed, the
// group committing settles, and the worker applies every committed batch
// and barrier, publishes what it applied and exits. It returns the
// shard's sticky error; Commit and Quiesce fail with ErrClosed
// afterwards.
func (s *Shard) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.take() // fails every call queued
		s.work.Signal()
	}
	s.mu.Unlock()
	<-s.stopped
	return s.Err()
}

// next blocks until a batch or barrier is the worker's, or the shard is
// closed with nothing left to apply and no group committing. Closing
// drains: committed entries are still returned after Close.
func (s *Shard) next() (*op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ready == 0 && (!s.closed || s.leading) {
		s.work.Wait()
	}
	if s.ready == 0 {
		return nil, false
	}
	o := s.queue[0]
	s.queue[0] = nil // release the batch to the GC as the queue drains
	s.queue = s.queue[1:]
	s.ready--
	return o, true
}

// loop is the shard worker: apply, check the swap policy, honor
// barriers. Application runs under the background context — a batch
// once committed is admitted and must be applied; cancellation governs
// only the admission and wait paths.
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
		if o.barrier != nil {
			o.barrier <- s.publishIfBehind()
			continue
		}
		s.apply(o)
	}
}

// apply folds one committed batch into the writable index, releases its
// calls' admission budget and runs the publication policy. A shard that
// has already failed releases the batch unapplied: its writable index
// may sit in the aftermath of the failed apply, and publishing from it
// would serve state no cold build reproduces. (A durable server's log
// still holds the batch, and a reopen replays it.)
//
// The policy: when a publication falls due it is fixed to the batch
// position committed at that moment; the shard publishes when it has
// applied through that position. With no backlog behind the due batch
// that is at once; under a burst it is one export covering the backlog
// instead of one per SwapOps window.
func (s *Shard) apply(b *op) {
	var err error
	t0 := telemetryNow()
	if s.Err() == nil {
		_, err = s.w.InsertAll(context.Background(), b.profiles)
	}
	dt := telemetryNow().Sub(t0)
	s.mu.Lock()
	s.admission.PendingRequests -= b.calls
	s.admission.PendingBytes -= b.bytes
	if s.err != nil { // only the worker sets it: the batch was not applied
		s.mu.Unlock()
		return
	}
	s.applied += int64(len(b.profiles))
	s.applyTime += dt
	if err != nil {
		s.err = fmt.Errorf("shard: apply: %w", err)
		s.mu.Unlock()
		return
	}
	s.batches++
	pos, committed := s.batches, s.committed
	s.mu.Unlock()
	s.sinceSwap += len(b.profiles)
	if s.publishAt == 0 && s.due() {
		s.publishAt = committed
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
