package blasthttp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"blast"
	"blast/internal/model"
)

// ErrBackpressure is returned by batcher.submit when admitting the
// request would exceed the configured in-flight bounds. The handler
// maps it onto 429 Too Many Requests with a Retry-After header — the
// server sheds load explicitly instead of queueing without bound.
var ErrBackpressure = errors.New("blasthttp: write queue full")

// ErrDraining is returned once Drain has begun: the server is shutting
// down and admits no further writes (503 on the wire).
var ErrDraining = errors.New("blasthttp: server draining")

// ErrClosed is returned by operations on a closed handler.
var ErrClosed = errors.New("blasthttp: handler closed")

// insertResult carries one request's share of a committed batch back to
// its waiting handler goroutine.
type insertResult struct {
	ids []int
	err error
}

// insertReq is one queued insert request. done is buffered so the
// committer can always deliver the result even when the waiter has
// abandoned the request (its context expired mid-commit).
type insertReq struct {
	ctx      context.Context
	profiles []model.Profile
	bytes    int64
	done     chan insertResult
}

// BatcherStats is a point-in-time summary of the write path, served by
// /statsz.
type BatcherStats struct {
	// Batches is the number of InsertAll calls committed so far — the
	// coalescing ratio is AdmittedProfiles/Batches.
	Batches int64 `json:"batches"`
	// AdmittedProfiles counts profiles admitted through the batcher.
	AdmittedProfiles int64 `json:"admitted_profiles"`
	// CoalescedRequests counts HTTP insert requests that shared a
	// committed batch with at least one other request.
	CoalescedRequests int64 `json:"coalesced_requests"`
	// Rejected counts requests shed with 429 by the in-flight bounds.
	Rejected int64 `json:"rejected"`
	// Canceled counts requests whose context expired before commit;
	// their profiles were never admitted.
	Canceled int64 `json:"canceled"`
	// PendingRequests/PendingBytes are the current in-flight level
	// (queued plus committing).
	PendingRequests int   `json:"pending_requests"`
	PendingBytes    int64 `json:"pending_bytes"`
}

// batcher coalesces concurrent insert requests into one admitted
// InsertAll batch by group commit. A single committer goroutine drains
// the queue: it commits whatever is queued at once, concatenated into
// one Server.InsertAll call, and fans the assigned ids back out to the
// waiters; requests that arrive while a commit is in flight queue up
// behind it and go into the next batch together. A lone writer pays no
// timer, and a burst costs one admission per commit, not per request. Admission is bounded — at most
// maxPendingReqs requests and maxPendingBytes encoded bytes may be in
// flight (queued or committing) at once; requests beyond the bound are
// rejected immediately with ErrBackpressure, so memory under saturation
// stays proportional to the bounds, never to the offered load.
type batcher struct {
	srv *blast.Server

	maxBatch        int   // profiles per InsertAll call
	maxPendingReqs  int   // in-flight request bound
	maxPendingBytes int64 // in-flight encoded-bytes bound

	mu           sync.Mutex
	cond         *sync.Cond
	queue        []*insertReq
	pendingReqs  int   // queued + committing requests
	pendingBytes int64 // queued + committing bytes
	draining     bool
	closed       bool
	stopped      chan struct{}
	// gate, when non-nil, holds the committer before every flush until
	// it can receive from the channel — a test seam that lets a queue
	// fill deterministically. Always nil in production.
	gate chan struct{}

	batches   atomic.Int64
	admitted  atomic.Int64
	coalesced atomic.Int64
	rejected  atomic.Int64
	canceled  atomic.Int64
}

func newBatcher(srv *blast.Server, opt Options) *batcher {
	b := &batcher{
		srv:             srv,
		maxBatch:        opt.maxBatch(),
		maxPendingReqs:  opt.maxPendingRequests(),
		maxPendingBytes: opt.maxPendingBytes(),
		stopped:         make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// submit queues one request's profiles for the next committed batch and
// waits for its ids. nbytes is the encoded size of the request body, the
// unit of the in-flight byte bound. Cancellation is honored until the
// committer picks the request up: a request whose context expires while
// still queued is dropped without being admitted. Once the commit has
// begun the batch is admitted as a whole — the caller receives ctx.Err()
// but the profiles may still have been durably admitted (exactly the
// in-process InsertAll contract, where admission is guarded by ctx only
// up to the journaling point).
func (b *batcher) submit(ctx context.Context, profiles []model.Profile, nbytes int64) ([]int, error) {
	req := &insertReq{
		ctx:      ctx,
		profiles: profiles,
		bytes:    nbytes,
		done:     make(chan insertResult, 1),
	}
	b.mu.Lock()
	switch {
	case b.closed:
		b.mu.Unlock()
		return nil, ErrClosed
	case b.draining:
		b.mu.Unlock()
		return nil, ErrDraining
	case b.pendingReqs >= b.maxPendingReqs || b.pendingBytes+nbytes > b.maxPendingBytes:
		b.mu.Unlock()
		b.rejected.Add(1)
		return nil, ErrBackpressure
	}
	b.pendingReqs++
	b.pendingBytes += nbytes
	b.queue = append(b.queue, req)
	b.cond.Broadcast()
	b.mu.Unlock()

	select {
	case res := <-req.done:
		return res.ids, res.err
	case <-ctx.Done():
		// The committer delivers to the buffered channel regardless; a
		// queued-and-not-yet-taken request is dropped there (see flush).
		return nil, ctx.Err()
	}
}

// loop is the committer: wait for work, then flush everything queued.
func (b *batcher) loop() {
	defer close(b.stopped)
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.queue) == 0 && b.closed {
			b.mu.Unlock()
			return
		}
		gate := b.gate
		b.mu.Unlock()
		if gate != nil {
			<-gate
		}
		b.flush()
	}
}

// flush drains the queue through InsertAll calls of at most maxBatch
// profiles each and distributes the assigned ids back to the waiters.
func (b *batcher) flush() {
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.cond.Broadcast() // wake Drain waiters
			b.mu.Unlock()
			return
		}
		// Take requests until the next one would overflow the batch
		// (always at least one, so oversized single requests still
		// commit — as their own batch).
		take := 0
		profiles := 0
		for _, r := range b.queue {
			if take > 0 && profiles+len(r.profiles) > b.maxBatch {
				break
			}
			profiles += len(r.profiles)
			take++
		}
		reqs := b.queue[:take:take]
		b.queue = b.queue[take:]
		b.mu.Unlock()

		b.commit(reqs)

		b.mu.Lock()
		for _, r := range reqs {
			b.pendingReqs--
			b.pendingBytes -= r.bytes
		}
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// commit admits the live requests of one take as a single batch. Requests
// whose context already expired are dropped here — the last moment
// cancellation can still prevent admission.
func (b *batcher) commit(reqs []*insertReq) {
	live := reqs[:0:len(reqs)]
	batch := make([]model.Profile, 0, 16)
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			b.canceled.Add(1)
			r.done <- insertResult{err: err}
			continue
		}
		live = append(live, r)
		batch = append(batch, r.profiles...)
	}
	if len(batch) == 0 {
		return
	}
	// The commit itself runs under the background context: it covers
	// several requests, so no single request's cancellation may abort
	// the others' admission.
	ids, err := b.srv.InsertAll(context.Background(), batch)
	if err != nil {
		for _, r := range live {
			r.done <- insertResult{err: err}
		}
		return
	}
	b.batches.Add(1)
	b.admitted.Add(int64(len(ids)))
	if len(live) > 1 {
		b.coalesced.Add(int64(len(live)))
	}
	off := 0
	for _, r := range live {
		r.done <- insertResult{ids: ids[off : off+len(r.profiles) : off+len(r.profiles)]}
		off += len(r.profiles)
	}
}

// stats snapshots the batcher counters.
func (b *batcher) stats() BatcherStats {
	b.mu.Lock()
	reqs, bytes := b.pendingReqs, b.pendingBytes
	b.mu.Unlock()
	return BatcherStats{
		Batches:           b.batches.Load(),
		AdmittedProfiles:  b.admitted.Load(),
		CoalescedRequests: b.coalesced.Load(),
		Rejected:          b.rejected.Load(),
		Canceled:          b.canceled.Load(),
		PendingRequests:   reqs,
		PendingBytes:      bytes,
	}
}

// drain stops admission (new submits fail with ErrDraining) and waits
// until every in-flight request has committed or ctx expires.
func (b *batcher) drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	done := make(chan struct{})
	abort := false
	go func() {
		defer close(done)
		b.mu.Lock()
		defer b.mu.Unlock()
		for b.pendingReqs > 0 && !abort {
			b.cond.Wait()
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Wake the waiter goroutine so it exits too; the pending
		// requests keep committing in the background.
		b.mu.Lock()
		abort = true
		b.cond.Broadcast()
		b.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// close stops the committer after it drains the queue. Idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.draining = true
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	<-b.stopped
}
