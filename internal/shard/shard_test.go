package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blast/internal/model"
)

// fakeWriter is a model-backed Writer: it records every applied profile
// and exports snapshots whose NumProfiles reflects the applied count,
// every row empty.
//
// agree, when set, answers Writer.Agree (the default is the unpartitioned
// answer, received itself); every call is logged as {received, target}.
// gate, when set, makes every Export announce itself on entered and then
// block until the test sends on gate — the way a test holds the worker
// inside an export while a backlog builds up behind it.
type fakeWriter struct {
	mu        sync.Mutex
	applied   []model.Profile
	exports   int
	applyErr  error
	exportErr error
	slow      time.Duration
	agree     func(received int64) (int64, error)
	agreed    [][2]int64
	gate      chan struct{}
	entered   chan struct{}
}

// gatedWriter returns a fakeWriter whose exports block until released.
func gatedWriter() *fakeWriter {
	// entered is buffered past any test's export count so the worker
	// never blocks announcing one.
	return &fakeWriter{gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

// release lets the export the worker is blocked in (or next enters)
// proceed, after waiting for it to be entered.
func (f *fakeWriter) release(t *testing.T) {
	t.Helper()
	select {
	case <-f.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never entered the export")
	}
	f.gate <- struct{}{}
}

func (f *fakeWriter) Agree(received int64) (int64, error) {
	target, err := received, error(nil)
	if f.agree != nil {
		target, err = f.agree(received)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		f.agreed = append(f.agreed, [2]int64{received, target})
	}
	return target, err
}

func (f *fakeWriter) agreements() [][2]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.agreed)
}

func (f *fakeWriter) InsertAll(ctx context.Context, ps []model.Profile) ([]int, error) {
	if f.slow > 0 {
		time.Sleep(f.slow)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.applyErr != nil {
		return nil, f.applyErr
	}
	ids := make([]int, len(ps))
	for i := range ps {
		ids[i] = len(f.applied)
		f.applied = append(f.applied, ps[i])
	}
	return ids, nil
}

func (f *fakeWriter) Export(ctx context.Context) (*Snapshot, error) {
	if f.gate != nil {
		f.entered <- struct{}{}
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.exportErr != nil {
		return nil, f.exportErr
	}
	f.exports++
	return &Snapshot{
		NumProfiles: len(f.applied),
		Offsets:     make([]int64, len(f.applied)+1),
	}, nil
}

func (f *fakeWriter) appliedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.applied)
}

// enqueueSingles sends n single-profile batches.
func enqueueSingles(t *testing.T, s *Shard, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Enqueue(profiles(1)); err != nil {
			t.Fatal(err)
		}
	}
}

func profiles(n int) []model.Profile {
	out := make([]model.Profile, n)
	for i := range out {
		out[i] = model.Profile{ID: fmt.Sprintf("p%d", i)}
	}
	return out
}

func TestShardAppliesInOrderAndBarrierPublishes(t *testing.T) {
	w := &fakeWriter{}
	s := New(0, 1, w, &Snapshot{}, Options{SwapOps: 0}) // no automatic swaps
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Enqueue(profiles(3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if got := w.appliedCount(); got != 15 {
		t.Fatalf("applied = %d, want 15", got)
	}
	st := s.Stats()
	if st.Applied != 15 || st.Swaps != 1 || st.Published != 15 || st.Epoch != 1 {
		t.Fatalf("stats = %+v, want 15 profiles published at epoch 1", st)
	}
	// An idle barrier re-publishes nothing.
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Epoch; got != 1 {
		t.Fatalf("idle barrier bumped epoch to %d", got)
	}
}

// cursorLog is a Publish hook recording the Batches cursor of every
// export handed over.
type cursorLog struct {
	mu      sync.Mutex
	cursors []int64
}

func (l *cursorLog) publish(sn *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cursors = append(l.cursors, sn.Batches)
	return nil
}

func (l *cursorLog) get() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.cursors)
}

// waitBatches blocks until the worker has applied n batches — and, the
// counter moving in the critical section that samples the mailbox count
// for Agree, has also taken that sample.
func waitBatches(t *testing.T, s *Shard, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Batches < n {
		if time.Now().After(deadline) {
			t.Fatalf("shard applied %d batches, want %d", s.Stats().Batches, n)
		}
		runtime.Gosched()
	}
}

// TestShardSwapOpsTrigger is the first half of the publication contract:
// with no backlog behind the batch that makes a publication fall due,
// nothing is deferred — the shard publishes at exactly the positions the
// op count names.
func TestShardSwapOpsTrigger(t *testing.T) {
	var log cursorLog
	w := &fakeWriter{}
	s := New(0, 1, w, &Snapshot{}, Options{SwapOps: 4, Publish: log.publish})
	defer s.Close()
	// One batch at a time, each applied before the next is sent.
	for i := int64(1); i <= 10; i++ {
		if err := s.Enqueue(profiles(1)); err != nil {
			t.Fatal(err)
		}
		waitBatches(t, s, i)
	}
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	// Due after the 4th and the 8th with an empty mailbox each time, so
	// agreed for those very positions; the barrier publishes the rest.
	if got, want := log.get(), []int64{4, 8, 10}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if got, want := w.agreements(), [][2]int64{{4, 4}, {8, 8}}; !slices.Equal(got, want) {
		t.Fatalf("agreements {received, target} = %v, want %v", got, want)
	}
	if st := s.Stats(); st.Swaps != 3 || st.Published != 10 {
		t.Fatalf("stats = %+v, want 3 swaps over 10 profiles", st)
	}

	// Enqueue-then-Barrier, every batch a full SwapOps window: the policy
	// publishes each (agreed at its own position) and the barriers find
	// nothing left to do.
	for i := int64(11); i <= 13; i++ {
		if err := s.Enqueue(profiles(4)); err != nil {
			t.Fatal(err)
		}
		if err := barrier(s); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := log.get(), []int64{4, 8, 10, 11, 12, 13}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if got, want := w.agreements()[2:], [][2]int64{{11, 11}, {12, 12}, {13, 13}}; !slices.Equal(got, want) {
		t.Fatalf("agreements {received, target} = %v, want %v", got, want)
	}
}

// TestShardBurstPublishesOnceAtAgreedPosition is the second half: a
// burst that arrives while the worker sits in an export is covered by
// ONE publication, at the position agreed when it fell due — the count
// the mailbox had received then — and not one per SwapOps window.
func TestShardBurstPublishesOnceAtAgreedPosition(t *testing.T) {
	var log cursorLog
	w := gatedWriter()
	s := New(0, 1, w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
	defer s.Close()
	enqueueSingles(t, s, 2)
	// The worker is now inside the export of position 2; ten more batches
	// queue up behind it.
	<-w.entered
	enqueueSingles(t, s, 10)
	w.gate <- struct{}{}
	// Batches 3 and 4 make the next publication fall due with 12 received:
	// it is agreed for 12 and published there, windows 6, 8 and 10 skipped.
	w.release(t)
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if got, want := log.get(), []int64{2, 12}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if got, want := w.agreements(), [][2]int64{{2, 2}, {12, 12}}; !slices.Equal(got, want) {
		t.Fatalf("agreements {received, target} = %v, want %v", got, want)
	}
	if st := s.Stats(); st.Swaps != 2 || st.Batches != 12 || st.Published != 12 {
		t.Fatalf("stats = %+v, want 2 swaps covering 12 batches", st)
	}
}

// TestShardContinuousStreamCannotPostpone: the target is fixed when the
// publication falls due, so a writer that never pauses still gets one
// publication per agreed window — each at exactly the agreed position,
// never later.
func TestShardContinuousStreamCannotPostpone(t *testing.T) {
	var log cursorLog
	w := &fakeWriter{}
	s := New(0, 1, w, &Snapshot{}, Options{SwapOps: 8, Publish: log.publish})
	const total = 4000
	for i := 0; i < total; i++ {
		if err := s.Enqueue(profiles(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cursors, agreed := log.get(), w.agreements()
	if len(agreed) == 0 {
		t.Fatal("no publication ever fell due")
	}
	for i, a := range agreed {
		if a[1] < 1 || a[1] > total || i >= len(cursors) || cursors[i] != a[1] {
			t.Fatalf("agreement %d {received, target} = %v, published at %v", i, a, cursors)
		}
	}
	if last := cursors[len(cursors)-1]; last != total || len(cursors) > len(agreed)+1 {
		t.Fatalf("published at %v after %d agreements, want the last at %d", cursors, len(agreed), total)
	}
}

// TestShardBarrierInsideHoldPublishesThere: a barrier the worker meets
// before the agreed position publishes on the spot and clears the hold —
// the next publication falls due afresh, counted from the barrier.
func TestShardBarrierInsideHoldPublishesThere(t *testing.T) {
	var log cursorLog
	w := gatedWriter()
	s := New(0, 1, w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
	defer s.Close()
	enqueueSingles(t, s, 2)
	<-w.entered             // inside the export of position 2
	enqueueSingles(t, s, 4) // 3..6
	done, err := s.BarrierStart()
	if err != nil {
		t.Fatal(err)
	}
	enqueueSingles(t, s, 4) // 7..10
	w.gate <- struct{}{}
	// Due at 4 with 10 received: held for 10. The barrier after batch 6
	// publishes there.
	w.release(t)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := log.get(), []int64{2, 6}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	// Hold cleared: 7 and 8 make a publication fall due again (a third
	// agreement), published at 10.
	w.release(t)
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if got, want := log.get(), []int64{2, 6, 10}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if got, want := w.agreements(), [][2]int64{{2, 2}, {10, 10}, {10, 10}}; !slices.Equal(got, want) {
		t.Fatalf("agreements {received, target} = %v, want %v", got, want)
	}
}

// TestShardCloseDuringHold: Close with a publication on hold drains the
// mailbox, publishes the final state and returns — also when the agreed
// position lies past everything the shard will ever receive, which an
// honest Writer never answers but which must not hang a shutdown.
func TestShardCloseDuringHold(t *testing.T) {
	for _, overshoot := range []int64{0, 100} {
		var log cursorLog
		w := gatedWriter()
		if overshoot > 0 {
			// Nothing is published before the drain ends: no gate needed.
			w = &fakeWriter{}
		}
		w.agree = func(received int64) (int64, error) { return received + overshoot, nil }
		s := New(0, 1, w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
		enqueueSingles(t, s, 2)
		if overshoot == 0 {
			<-w.entered // inside the export of position 2
		}
		enqueueSingles(t, s, 5)
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		if overshoot == 0 {
			w.gate <- struct{}{}
			w.release(t) // due at 4, held for 7, reached inside the drain
		}
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("overshoot %d: Close hung on a held publication", overshoot)
		}
		want := []int64{2, 7}
		if overshoot > 0 {
			want = []int64{7}
		}
		if got := log.get(); !slices.Equal(got, want) {
			t.Fatalf("overshoot %d: published at %v, want %v", overshoot, got, want)
		}
		if st := s.Stats(); st.Batches != 7 || st.Published != 7 {
			t.Fatalf("overshoot %d: final state = {batches %d, profiles %d}, want 7 of each", overshoot, st.Batches, st.Published)
		}
	}
}

// exchangePair starts two shards whose writers agree over one Exchange
// and whose failure hooks poison it, the way a partitioned server wires
// them; fails counts each shard's OnFail invocations.
func exchangePair(opts [2]Options) (shards [2]*Shard, writers [2]*fakeWriter, fails *[2]atomic.Int32) {
	ex := NewExchange(2)
	fails = new([2]atomic.Int32)
	for i := range shards {
		i := i
		writers[i] = &fakeWriter{agree: func(received int64) (int64, error) { return ex.AgreeMin(i, received) }}
		opts[i].OnFail = func(err error) {
			fails[i].Add(1)
			ex.Poison(err)
		}
		shards[i] = New(i, 2, writers[i], &Snapshot{}, opts[i])
	}
	return shards, writers, fails
}

// TestShardAgreementPicksTheSlowestMailbox: two shards fed unevenly
// agree on the smaller received count and both publish exactly there.
func TestShardAgreementPicksTheSlowestMailbox(t *testing.T) {
	var logs [2]cursorLog
	shards, writers, _ := exchangePair([2]Options{
		{SwapOps: 2, Publish: logs[0].publish},
		{SwapOps: 2, Publish: logs[1].publish},
	})
	// Shard 0 holds 9 batches when its publication falls due; shard 1 is
	// given only 5 before it can answer.
	enqueueSingles(t, shards[0], 9)
	waitBatches(t, shards[0], 2)
	enqueueSingles(t, shards[1], 5)
	waitBatches(t, shards[1], 5)
	enqueueSingles(t, shards[1], 4)
	for i := range shards {
		if err := shards[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	a0, a1 := writers[0].agreements(), writers[1].agreements()
	if len(a0) == 0 || len(a0) != len(a1) {
		t.Fatalf("agreement rounds: %v vs %v", a0, a1)
	}
	for k := range a0 {
		if a0[k][1] != a1[k][1] {
			t.Fatalf("round %d agreed differently: %v vs %v", k, a0, a1)
		}
	}
	if first := a0[0]; first[1] < 2 || first[1] > 5 {
		t.Fatalf("first agreement %v: shard 1 had received at most 5 batches", first)
	}
	if c0, c1 := logs[0].get(), logs[1].get(); !slices.Equal(c0, c1) || c0[len(c0)-1] != 9 {
		t.Fatalf("published positions differ or stop short of 9: %v vs %v", c0, c1)
	}
}

// TestShardAgreementErrorIsStickyAndPoisonsPeers: a failed agreement is
// the shard's sticky error, fires OnFail exactly once, and through it
// fails the peer's round instead of leaving it waiting.
func TestShardAgreementErrorIsStickyAndPoisonsPeers(t *testing.T) {
	boom := errors.New("agree boom")
	shards, writers, fails := exchangePair([2]Options{{SwapOps: 2}, {SwapOps: 2}})
	defer shards[0].Close()
	defer shards[1].Close()
	writers[0].agree = func(int64) (int64, error) { return 0, boom }
	for _, sh := range shards {
		enqueueSingles(t, sh, 2)
	}
	for i, sh := range shards {
		if err := barrier(sh); !errors.Is(err, boom) {
			t.Fatalf("shard %d barrier = %v, want the agreement failure", i, err)
		}
	}
	// Sticky, and dropped batches reach neither the writer nor a round.
	for _, sh := range shards {
		enqueueSingles(t, sh, 4)
	}
	for i, sh := range shards {
		if err := barrier(sh); !errors.Is(err, boom) {
			t.Fatalf("shard %d second barrier = %v, want the sticky failure", i, err)
		}
		if got := writers[i].appliedCount(); got != 2 {
			t.Fatalf("shard %d applied %d profiles after failing, want 2", i, got)
		}
		if got := fails[i].Load(); got != 1 {
			t.Fatalf("shard %d fired OnFail %d times, want once", i, got)
		}
		if st := sh.Stats(); st.Swaps != 0 {
			t.Fatalf("shard %d published %d times past a failed agreement", i, st.Swaps)
		}
	}
}

// TestShardFailedPeerTakesNoAgreementRound: a shard that failed on apply
// drops its batches without ever joining an agreement, and the round its
// peer is already waiting in returns the poison.
func TestShardFailedPeerTakesNoAgreementRound(t *testing.T) {
	boom := errors.New("apply boom")
	shards, writers, fails := exchangePair([2]Options{{SwapOps: 2}, {SwapOps: 2}})
	defer shards[0].Close()
	defer shards[1].Close()
	writers[0].applyErr = boom
	// Shard 1 falls due first and waits in the round for shard 0.
	enqueueSingles(t, shards[1], 2)
	waitBatches(t, shards[1], 2)
	pending, err := shards[1].BarrierStart()
	if err != nil {
		t.Fatal(err)
	}
	enqueueSingles(t, shards[0], 4)
	if err := barrier(shards[0]); !errors.Is(err, boom) {
		t.Fatalf("failed shard barrier = %v, want %v", err, boom)
	}
	select {
	case err := <-pending:
		if !errors.Is(err, boom) {
			t.Fatalf("peer's pending round = %v, want the poison %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer still waits for a round the failed shard will never join")
	}
	if got := len(writers[0].agreements()); got != 0 {
		t.Fatalf("failed shard took %d agreement rounds, want none", got)
	}
	if f0, f1 := fails[0].Load(), fails[1].Load(); f0 != 1 || f1 != 1 {
		t.Fatalf("OnFail fired %d and %d times, want once each", f0, f1)
	}
}

func TestShardStickyApplyError(t *testing.T) {
	boom := errors.New("boom")
	w := &fakeWriter{applyErr: boom}
	s := New(0, 1, w, &Snapshot{}, Options{})
	defer s.Close()
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := barrier(s); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
	// Enqueue still accepts (broadcast atomicity: a failed shard must
	// not split a multi-shard broadcast) but the batch is dropped and
	// the failure stays observable.
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatalf("enqueue after failure = %v, want accepted-and-dropped", err)
	}
	if err := barrier(s); !errors.Is(err, boom) {
		t.Fatalf("barrier after failed enqueue = %v, want sticky error", err)
	}
	if got := s.Stats().Applied; got != 1 {
		t.Fatalf("failed shard applied %d, want 1 (drops after failure)", got)
	}
	if err := s.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestShardExportError(t *testing.T) {
	boom := errors.New("export boom")
	w := &fakeWriter{exportErr: boom}
	s := New(0, 1, w, &Snapshot{}, Options{})
	defer s.Close()
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := barrier(s); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
}

func TestShardCloseDrainsAndStops(t *testing.T) {
	base := runtime.NumGoroutine()
	w := &fakeWriter{slow: time.Millisecond}
	s := New(0, 1, w, &Snapshot{}, Options{})
	for i := 0; i < 8; i++ {
		if err := s.Enqueue(profiles(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.appliedCount(); got != 16 {
		t.Fatalf("close did not drain: applied %d, want 16", got)
	}
	if err := s.Enqueue(profiles(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
	if err := barrier(s); !errors.Is(err, ErrClosed) {
		t.Fatalf("barrier after close = %v, want ErrClosed", err)
	}
	// Close is idempotent and the worker is gone.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked after Close: %d > %d", n, base)
	}
}

// TestShardBatchesAndPersistHook pins the publication contract of the
// worker: exports carry the batch cursor, the Publish hook sees exactly
// the publications — the agreed one of a burst, not one per SwapOps
// window —, a closing drain publishes the tail, and a hook failure is
// sticky.
func TestShardBatchesAndPersistHook(t *testing.T) {
	var log cursorLog
	w := gatedWriter()
	s := New(0, 1, w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
	enqueueSingles(t, s, 2)
	<-w.entered // inside the export of position 2
	enqueueSingles(t, s, 3)
	w.gate <- struct{}{}
	// Due again at 4 with 5 received: agreed for 5, window 4 skipped.
	w.release(t)
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 5 || st.Swaps != 2 || st.Epoch != 2 {
		t.Fatalf("stats = %+v, want 5 batches in 2 swaps, epoch 2", st)
	}
	if got, want := log.get(), []int64{2, 5}; !slices.Equal(got, want) {
		t.Fatalf("persisted cursor sequence = %v, want %v", got, want)
	}
	// Close with unpublished tail: the drain publishes (and persists).
	enqueueSingles(t, s, 1)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	w.release(t)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Published; got != 6 {
		t.Fatalf("post-Close published %d profiles, want 6 (close drain must publish)", got)
	}
	if got, want := log.get(), []int64{2, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("persisted cursor sequence = %v, want %v", got, want)
	}
}

func TestShardPersistErrorSticky(t *testing.T) {
	boom := errors.New("disk full")
	w := &fakeWriter{}
	s := New(0, 1, w, &Snapshot{}, Options{Publish: func(*Snapshot) error { return boom }})
	defer s.Close()
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := barrier(s); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
	if err := s.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want sticky publish error", err)
	}
}

// TestShardContinuesFromStartState: a shard started over a server's
// start state — a recovered one, here at epoch 7 and batch 3 — counts
// its stream position and its epochs on from there, and reports its
// share of the start state before it has published anything.
func TestShardContinuesFromStartState(t *testing.T) {
	var log cursorLog
	start := sampleSnapshot(true)
	s := New(1, 2, &fakeWriter{}, start, Options{Publish: log.publish})
	defer s.Close()
	rows, bytes := start.Share(1, 2)
	if st := s.Stats(); st.Epoch != 7 || st.Batches != 3 || st.Published != 4 || st.OwnedRows != rows || st.ResidentBytes != bytes {
		t.Fatalf("stats before any publication = %+v, want epoch 7, batch 3, 4 profiles, share (%d, %d)", st, rows, bytes)
	}
	enqueueSingles(t, s, 2)
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if got, want := log.get(), []int64{5}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if st := s.Stats(); st.Epoch != 8 || st.Batches != 5 {
		t.Fatalf("stats = %+v, want epoch 8 at batch 5", st)
	}
}

func TestShardBarrierContext(t *testing.T) {
	w := &fakeWriter{slow: 50 * time.Millisecond}
	s := New(0, 1, w, &Snapshot{}, Options{})
	defer s.Close()
	if err := s.Enqueue(profiles(4)); err != nil {
		t.Fatal(err)
	}
	// BarrierStart only enqueues: the wait is the caller's to abandon,
	// and the barrier still completes behind the slow apply.
	done, err := s.BarrierStart()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	select {
	case err := <-done:
		t.Fatalf("barrier completed before the slow apply: %v", err)
	case <-ctx.Done():
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := w.appliedCount(); got != 4 {
		t.Fatalf("applied = %d, want 4", got)
	}
}

func TestOwnerStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		counts := make([]int, n)
		for id := int32(0); id < 4096; id++ {
			o := Owner(id, n)
			if o < 0 || o >= n {
				t.Fatalf("Owner(%d, %d) = %d out of range", id, n, o)
			}
			if o != Owner(id, n) {
				t.Fatalf("Owner(%d, %d) unstable", id, n)
			}
			counts[o]++
		}
		// The mix should spread dense ids roughly uniformly: no shard may
		// be starved below half its fair share.
		for i, c := range counts {
			if c < 4096/n/2 {
				t.Errorf("Owner(:, %d): shard %d got %d of 4096", n, i, c)
			}
		}
	}
	if Owner(123, 0) != 0 || Owner(123, 1) != 0 {
		t.Error("degenerate shard counts must map to 0")
	}
}

// barrier places a publication barrier on s and waits for it.
func barrier(s *Shard) error {
	done, err := s.BarrierStart()
	if err != nil {
		return err
	}
	return <-done
}
