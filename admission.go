package blast

// Group commit. Every InsertAll call joins one bounded write queue, and
// the queue has no goroutine of its own: the call at its head commits
// everything queued behind it as one group — one write-ahead-log record
// (one fsync at SyncEvery 1) and one enqueue on the writer — then wakes the
// callers and hands the head to the next call queued. A lone caller
// commits its own batch at once; N concurrent callers cost as many
// commits as the fsyncs they queue behind, not N.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
)

// ErrOverloaded is returned by InsertAll when admitting the call would
// take the write queue past ServerOptions.MaxPendingRequests or
// MaxPendingBytes. Nothing of the call was admitted; it may be retried
// once the queue has drained.
var ErrOverloaded = errors.New("blast: write queue full")

// WriteStats is a point-in-time summary of a Server's write queue.
type WriteStats struct {
	// Batches is the number of groups committed so far: one
	// write-ahead-log record each on a durable server. The coalescing
	// ratio is AdmittedProfiles/Batches.
	Batches int64 `json:"batches"`
	// AdmittedProfiles counts the profiles InsertAll admitted.
	AdmittedProfiles int64 `json:"admitted_profiles"`
	// CoalescedRequests counts the InsertAll calls committed in a group
	// with at least one other call.
	CoalescedRequests int64 `json:"coalesced_requests"`
	// Rejected counts the calls refused with ErrOverloaded.
	Rejected int64 `json:"rejected"`
	// Canceled counts the calls whose context ended while they were
	// queued; nothing of them was admitted.
	Canceled int64 `json:"canceled"`
	// PendingRequests and PendingBytes are the current queue level: the
	// calls queued plus the group committing, and their estimated size.
	PendingRequests int   `json:"pending_requests"`
	PendingBytes    int64 `json:"pending_bytes"`
}

// admitState is where one call stands in the write queue.
type admitState uint8

const (
	admitQueued admitState = iota // waiting to be taken into a group
	admitLead                     // at the head: its caller commits the next group
	admitTaken                    // in the group being committed
	admitDone                     // ids or err are final
)

// admission is one InsertAll call in the write queue. Its state, ids and
// err are guarded by writeQueue.mu.
type admission struct {
	ctx   context.Context
	batch []model.Profile // the caller's profiles, deep-copied
	bytes int64
	state admitState
	ids   []int
	err   error
	wake  chan struct{} // signalled when state moves to admitLead or admitDone
}

// writeQueue is a Server's write queue. Lock order: Server.mu before
// writeQueue.mu.
type writeQueue struct {
	mu       sync.Mutex
	queue    []*admission // untaken calls, in arrival order
	leading  bool         // a call holds the head; false only when queue is empty
	closed   bool
	maxReqs  int
	maxBytes int64
	stats    WriteStats
}

// InsertAll admits a batch of profiles, assigns their global ids, and
// hands the batch to the writer. The profiles are copied,
// so the caller may reuse them once InsertAll returns.
//
// Concurrent calls are committed together: the call at the head of the
// write queue journals everything queued behind it as one record of the
// write-ahead log (one fsync at ServerOptions.SyncEvery 1) and enqueues
// it on the writer once. Ids are assigned in queue order and are
// contiguous within a call. The queue is bounded by
// ServerOptions.MaxPendingRequests and MaxPendingBytes; a call beyond
// either bound fails at once with ErrOverloaded.
//
// An error return means none of the call's profiles were admitted. A
// call whose ctx ends while it is queued leaves the queue with ctx's
// error; one already taken into a group waits out that group's commit
// and returns its outcome. After Close, calls fail with
// shard.ErrClosed.
//
// Ids are returned once the batch is journaled and enqueued;
// application and publication are asynchronous: reads observe the batch
// once the writer next publishes (due after ServerOptions.SwapOps
// applied profiles, published at the newest batch it had received when
// it fell due, at the latest on Quiesce or Close — see the consistency contract
// in server.go).
func (s *Server) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	if len(profiles) == 0 {
		return nil, ctx.Err()
	}
	// The writer reads the batch asynchronously, so nothing may alias
	// caller memory — copying the Profile structs alone would share the
	// Pairs backing arrays and let a caller reusing its buffers race the
	// applier.
	batch := make([]model.Profile, len(profiles))
	for i := range profiles {
		batch[i] = profiles[i]
		batch[i].Pairs = slices.Clone(profiles[i].Pairs)
	}
	a := &admission{ctx: ctx, batch: batch, bytes: profilesBytes(profiles), wake: make(chan struct{}, 1)}
	q := &s.wq
	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		return nil, shard.ErrClosed
	case ctx.Err() != nil:
		q.mu.Unlock()
		return nil, ctx.Err()
	case q.stats.PendingRequests >= q.maxReqs || q.stats.PendingBytes+a.bytes > q.maxBytes:
		q.stats.Rejected++
		q.mu.Unlock()
		return nil, ErrOverloaded
	}
	q.queue = append(q.queue, a)
	q.stats.PendingRequests++
	q.stats.PendingBytes += a.bytes
	if !q.leading {
		q.leading = true
		a.state = admitLead
	}
	ctxDone := ctx.Done()
	for a.state != admitDone {
		if a.state == admitLead {
			// A head whose ctx has ended still commits the group behind
			// it; commitGroup drops the head itself.
			q.mu.Unlock()
			s.commitGroup()
			q.mu.Lock()
			continue
		}
		q.mu.Unlock()
		select {
		case <-a.wake:
		case <-ctxDone:
			ctxDone = nil // a call already taken waits out its group
		}
		q.mu.Lock()
		if a.state == admitQueued && ctx.Err() != nil {
			q.queue = slices.DeleteFunc(q.queue, func(r *admission) bool { return r == a })
			q.stats.Canceled++
			q.finish(a, nil, ctx.Err())
		}
	}
	q.mu.Unlock()
	return a.ids, a.err
}

// commitGroup runs on the caller at the head of the write queue. Holding
// the server lock it takes every call queued — dropping those whose
// context already ended — and commits them as one group; then it wakes
// them and hands the head to the next call queued.
func (s *Server) commitGroup() {
	q := &s.wq
	s.mu.Lock()
	q.mu.Lock()
	group := q.queue
	q.queue = nil
	live := group[:0]
	for _, a := range group {
		if err := a.ctx.Err(); err != nil {
			q.stats.Canceled++
			q.finish(a, nil, err)
			continue
		}
		a.state = admitTaken
		live = append(live, a)
	}
	q.mu.Unlock()
	ids, err := s.admitLocked(live)
	s.mu.Unlock()

	q.mu.Lock()
	defer q.mu.Unlock()
	off := 0
	for _, a := range live {
		if err != nil {
			q.finish(a, nil, err)
			continue
		}
		q.finish(a, ids[off:off+len(a.batch):off+len(a.batch)], nil)
		off += len(a.batch)
	}
	if err == nil && len(live) > 0 {
		q.stats.Batches++
		q.stats.AdmittedProfiles += int64(len(ids))
		if len(live) > 1 {
			q.stats.CoalescedRequests += int64(len(live))
		}
	}
	q.handOff()
}

// admitLocked journals and enqueues one group as a single batch and
// assigns its ids. The caller holds s.mu.
func (s *Server) admitLocked(group []*admission) ([]int, error) {
	if len(group) == 0 {
		return nil, nil
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	batch := group[0].batch
	if len(group) > 1 {
		batch = nil
		for _, a := range group {
			batch = append(batch, a.batch...)
		}
	}
	// Durable servers journal the batch before admitting it: once ids
	// are returned the batch survives a crash (to the fsync policy), and
	// a batch that could not be journaled is not admitted at all.
	if s.log != nil {
		if err := s.log.Append(wal.AppendBatch(nil, batch)); err != nil {
			return nil, fmt.Errorf("blast: wal append: %w", err)
		}
	}
	// The enqueue cannot fail here: the server lock excludes Close, and
	// the mailbox never rejects otherwise.
	if err := s.worker.Enqueue(batch); err != nil {
		return nil, err
	}
	ids := make([]int, len(batch))
	for i := range ids {
		ids[i] = s.nextID
		s.nextID++
	}
	return ids, nil
}

// finish settles one call's outcome, releases its share of the queue
// bounds and wakes its caller. The caller holds q.mu.
func (q *writeQueue) finish(a *admission, ids []int, err error) {
	a.ids, a.err, a.state = ids, err, admitDone
	q.stats.PendingRequests--
	q.stats.PendingBytes -= a.bytes
	wake(a)
}

// handOff passes the head of the queue to the first call queued, or
// frees it when none is. The caller holds q.mu.
func (q *writeQueue) handOff() {
	if len(q.queue) == 0 {
		q.leading = false
		return
	}
	q.queue[0].state = admitLead
	wake(q.queue[0])
}

// wake signals a call's caller without blocking: the caller re-reads
// its state under q.mu, so one pending signal covers any number.
func wake(a *admission) {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// close fails every untaken call with shard.ErrClosed and refuses new
// ones. A group already taken commits under the server lock, which
// Close waits for after this.
func (q *writeQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, a := range q.queue {
		q.finish(a, nil, shard.ErrClosed)
	}
	q.queue = nil
}

// WriteStats snapshots the write-queue counters.
func (s *Server) WriteStats() WriteStats {
	s.wq.mu.Lock()
	defer s.wq.mu.Unlock()
	return s.wq.stats
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
