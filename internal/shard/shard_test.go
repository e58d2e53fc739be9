package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"blast/internal/model"
)

// fakeWriter is a model-backed Writer: it records every applied profile
// and exports snapshots whose NumProfiles reflects the applied count,
// every row empty.
//
// gate, when set, makes every Export announce itself on entered and then
// block until the test sends on gate — the way a test holds the worker
// inside an export while a backlog builds up behind it. onApply, when
// set, runs on the worker after every applied batch.
type fakeWriter struct {
	mu        sync.Mutex
	applied   []model.Profile
	exports   int
	applyErr  error
	exportErr error
	slow      time.Duration
	gate      chan struct{}
	entered   chan struct{}
	onApply   func()
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

// Journal closes the group and journals nothing.
func (f *fakeWriter) Journal(take func() []model.Profile) error {
	take()
	return nil
}

func (f *fakeWriter) InsertAll(ctx context.Context, ps []model.Profile) ([]int, error) {
	if f.slow > 0 {
		time.Sleep(f.slow)
	}
	if f.onApply != nil {
		defer f.onApply()
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

// commit admits one batch through Commit, alone in its group.
func commit(s *Shard, ps []model.Profile) error {
	_, err := s.Commit(context.Background(), ps, 0)
	return err
}

// commitSingles commits n single-profile batches.
func commitSingles(t *testing.T, s *Shard, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := commit(s, profiles(1)); err != nil {
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
	s := New(w, &Snapshot{}, Options{SwapOps: 0}) // no automatic swaps
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := commit(s, profiles(3)); err != nil {
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
// counter moving in the critical section that samples the committed count
// a due publication is fixed to, has also taken that sample.
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
	s := New(w, &Snapshot{}, Options{SwapOps: 4, Publish: log.publish})
	defer s.Close()
	// One batch at a time, each applied before the next is sent.
	for i := int64(1); i <= 10; i++ {
		if err := commit(s, profiles(1)); err != nil {
			t.Fatal(err)
		}
		waitBatches(t, s, i)
	}
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	// Due after the 4th and the 8th with nothing committed behind each time, so
	// fixed to those very positions; the barrier publishes the rest.
	if got, want := log.get(), []int64{4, 8, 10}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if st := s.Stats(); st.Swaps != 3 || st.Published != 10 {
		t.Fatalf("stats = %+v, want 3 swaps over 10 profiles", st)
	}

	// Commit-then-Barrier, every batch a full SwapOps window: the policy
	// publishes each (fixed to its own position) and the barriers find
	// nothing left to do.
	for i := int64(11); i <= 13; i++ {
		if err := commit(s, profiles(4)); err != nil {
			t.Fatal(err)
		}
		if err := barrier(s); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := log.get(), []int64{4, 8, 10, 11, 12, 13}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
}

// TestShardBurstPublishesOnceAtAgreedPosition is the second half: a
// burst that arrives while the worker sits in an export is covered by
// ONE publication, at the position fixed when it fell due — the count
// committed then — and not one per SwapOps window.
func TestShardBurstPublishesOnceAtAgreedPosition(t *testing.T) {
	var log cursorLog
	w := gatedWriter()
	s := New(w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
	defer s.Close()
	commitSingles(t, s, 2)
	// The worker is now inside the export of position 2; ten more batches
	// queue up behind it.
	<-w.entered
	commitSingles(t, s, 10)
	w.gate <- struct{}{}
	// Batches 3 and 4 make the next publication fall due with 12 received:
	// it is fixed to 12 and published there, windows 6, 8 and 10 skipped.
	w.release(t)
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if got, want := log.get(), []int64{2, 12}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if st := s.Stats(); st.Swaps != 2 || st.Batches != 12 || st.Published != 12 {
		t.Fatalf("stats = %+v, want 2 swaps covering 12 batches", st)
	}
}

// TestShardContinuousStreamCannotPostpone: the target is fixed when the
// publication falls due, so a writer that never pauses still gets one
// publication per window — each at exactly the position committed when
// it fell due, never later. Every applied batch commits
// the next, so that position runs a constant 10 batches ahead.
func TestShardContinuousStreamCannotPostpone(t *testing.T) {
	const total, ahead, swapOps = 400, 10, 8
	var log cursorLog
	w := &fakeWriter{}
	ready := make(chan struct{})
	var s *Shard
	committed := int64(ahead)
	w.onApply = func() {
		<-ready
		if committed < total {
			committed++
			if err := commit(s, profiles(1)); err != nil {
				t.Error(err)
			}
		}
	}
	s = New(w, &Snapshot{}, Options{SwapOps: swapOps, Publish: log.publish})
	commitSingles(t, s, ahead)
	close(ready)
	waitBatches(t, s, total)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Due after swapOps applied since the last publication and fixed
	// ahead of it: 18, 36, … while the stream runs. 396 is fixed when
	// only 400 will ever arrive, and the Close drain publishes the tail.
	var want []int64
	for at := int64(swapOps + ahead); at < 396; at += swapOps + ahead {
		want = append(want, at)
	}
	want = append(want, 396, total)
	if got := log.get(); !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
}

// TestShardBarrierInsideHoldPublishesThere: a barrier the worker meets
// before the fixed position publishes on the spot and clears the hold —
// the next publication falls due afresh, counted from the barrier.
func TestShardBarrierInsideHoldPublishesThere(t *testing.T) {
	var log cursorLog
	w := gatedWriter()
	s := New(w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
	defer s.Close()
	commitSingles(t, s, 2)
	<-w.entered            // inside the export of position 2
	commitSingles(t, s, 4) // 3..6
	done := make(chan error, 1)
	go func() { done <- barrier(s) }()
	for s.Stats().Queued != 5 { // the barrier placed behind 3..6
		runtime.Gosched()
	}
	commitSingles(t, s, 4) // 7..10
	w.gate <- struct{}{}
	// Due at 4 with 10 received: fixed to 10. The barrier after batch 6
	// publishes there.
	w.release(t)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := log.get(), []int64{2, 6}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	// Hold cleared: 7 and 8 make a publication fall due again, fixed to
	// and published at 10.
	w.release(t)
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if got, want := log.get(), []int64{2, 6, 10}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
}

// TestShardCloseDuringHold: Close with a publication on hold drains the
// queue, publishes the final state and returns.
func TestShardCloseDuringHold(t *testing.T) {
	var log cursorLog
	w := gatedWriter()
	s := New(w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
	commitSingles(t, s, 2)
	<-w.entered // inside the export of position 2
	commitSingles(t, s, 5)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	w.gate <- struct{}{}
	w.release(t) // due at 4, held for 7, reached inside the drain
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a held publication")
	}
	if got, want := log.get(), []int64{2, 7}; !slices.Equal(got, want) {
		t.Fatalf("published at %v, want %v", got, want)
	}
	if st := s.Stats(); st.Batches != 7 || st.Published != 7 {
		t.Fatalf("final state = {batches %d, profiles %d}, want 7 of each", st.Batches, st.Published)
	}
}

func TestShardStickyApplyError(t *testing.T) {
	boom := errors.New("boom")
	w := &fakeWriter{applyErr: boom}
	s := New(w, &Snapshot{}, Options{})
	defer s.Close()
	if err := commit(s, profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := barrier(s); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
	// A failed shard refuses admission with its sticky error, and the
	// failure stays observable.
	if err := commit(s, profiles(1)); !errors.Is(err, boom) {
		t.Fatalf("commit after failure = %v, want the sticky error", err)
	}
	if err := barrier(s); !errors.Is(err, boom) {
		t.Fatalf("barrier after refused commit = %v, want sticky error", err)
	}
	if got := s.Stats().Applied; got != 1 {
		t.Fatalf("failed shard applied %d, want 1 (refuses after failure)", got)
	}
	if got := s.Admitted(); got != 1 {
		t.Fatalf("failed shard admitted %d profiles, want 1", got)
	}
	if err := s.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v", err)
	}
}

// TestShardBoundCoversApply: a committed batch holds its calls'
// admission budget until the worker has applied it. With the worker held
// inside an export, exactly MaxRequests calls are admitted — the batch
// whose publication the worker is in has been applied and released its
// share — and the rest fail with ErrOverloaded, admitting nothing; the
// batches waiting never outnumber the bound. Released, the worker
// applies every admitted batch and frees the budget.
func TestShardBoundCoversApply(t *testing.T) {
	const bound = 4
	w := gatedWriter()
	s := New(w, &Snapshot{}, Options{SwapOps: 1, MaxRequests: bound})
	defer s.Close()
	commitSingles(t, s, 1)
	<-w.entered // inside the export of position 1
	admitted := 0
	for i := 0; i < 3*bound; i++ {
		switch ids, err := s.Commit(context.Background(), profiles(1), 0); {
		case err == nil:
			admitted++
		case !errors.Is(err, ErrOverloaded) || ids != nil:
			t.Fatalf("call %d: ids %v, err %v", i, ids, err)
		}
		if q := s.Stats().Queued; q > bound {
			t.Fatalf("%d batches queued, bound %d", q, bound)
		}
	}
	if st := s.WriteStats(); admitted != bound || st.Rejected != 2*bound || st.PendingRequests != bound || s.Admitted() != 1+bound {
		t.Fatalf("%d admitted behind a held export (%+v, %d ids), want %d", admitted, st, s.Admitted(), bound)
	}
	w.gate <- struct{}{}
	w.release(t) // the batches behind fall due at once: one export covers them
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if st := s.WriteStats(); st.PendingRequests != 0 || w.appliedCount() != 1+bound {
		t.Fatalf("after the drain: %+v, %d applied", st, w.appliedCount())
	}
	close(w.gate) // later exports pass
	if err := commit(s, profiles(1)); err != nil {
		t.Fatalf("commit with the budget free: %v", err)
	}
}

// journalSleeper is a fakeWriter whose Journal takes a little time, so
// calls queue behind each group commit.
type journalSleeper struct{ fakeWriter }

func (j *journalSleeper) Journal(take func() []model.Profile) error {
	take()
	time.Sleep(20 * time.Microsecond)
	return nil
}

// TestShardHeadPassesUnderCancellation: the head of the queue passes to
// a call still waiting whatever happens to the call it was handed to.
// Each round, calls whose contexts end at random race calls that never
// give up, and no call arrives after them to take a free head: every
// call returns — none is stranded behind a head nobody holds — and
// every admitted profile is applied.
func TestShardHeadPassesUnderCancellation(t *testing.T) {
	w := &journalSleeper{}
	s := New(w, &Snapshot{}, Options{})
	defer s.Close()
	const rounds, callers = 300, 8
	admitted := 0
	for r := 0; r < rounds; r++ {
		results := make(chan error, callers)
		for i := 0; i < callers; i++ {
			go func(i int) {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%2 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration((r+i)%5)*20*time.Microsecond)
				}
				defer cancel()
				_, err := s.Commit(ctx, profiles(1), 0)
				if i%2 == 1 && err != nil {
					err = fmt.Errorf("a call with no deadline: %w", err)
				} else if errors.Is(err, context.DeadlineExceeded) {
					err = errCanceled
				}
				results <- err
			}(i)
		}
		for i := 0; i < callers; i++ {
			select {
			case err := <-results:
				switch {
				case err == nil:
					admitted++
				case err != errCanceled:
					t.Fatalf("round %d: %v", r, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: a call was stranded in the queue", r)
			}
		}
	}
	if err := barrier(s); err != nil {
		t.Fatal(err)
	}
	if st := s.WriteStats(); w.appliedCount() != admitted || s.Admitted() != admitted || st.PendingRequests != 0 {
		t.Fatalf("%d admitted, %d applied, %+v", admitted, w.appliedCount(), st)
	}
}

// errCanceled marks a call that gave up, as its context allowed.
var errCanceled = errors.New("canceled")

func TestShardExportError(t *testing.T) {
	boom := errors.New("export boom")
	w := &fakeWriter{exportErr: boom}
	s := New(w, &Snapshot{}, Options{})
	defer s.Close()
	if err := commit(s, profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := barrier(s); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
}

func TestShardCloseDrainsAndStops(t *testing.T) {
	base := runtime.NumGoroutine()
	w := &fakeWriter{slow: time.Millisecond}
	s := New(w, &Snapshot{}, Options{})
	for i := 0; i < 8; i++ {
		if err := commit(s, profiles(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.appliedCount(); got != 16 {
		t.Fatalf("close did not drain: applied %d, want 16", got)
	}
	if err := commit(s, profiles(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close = %v, want ErrClosed", err)
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
// the publications — the fixed one of a burst, not one per SwapOps
// window —, a closing drain publishes the tail, and a hook failure is
// sticky.
func TestShardBatchesAndPersistHook(t *testing.T) {
	var log cursorLog
	w := gatedWriter()
	s := New(w, &Snapshot{}, Options{SwapOps: 2, Publish: log.publish})
	commitSingles(t, s, 2)
	<-w.entered // inside the export of position 2
	commitSingles(t, s, 3)
	w.gate <- struct{}{}
	// Due again at 4 with 5 received: fixed to 5, window 4 skipped.
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
	commitSingles(t, s, 1)
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
	s := New(w, &Snapshot{}, Options{Publish: func(*Snapshot) error { return boom }})
	defer s.Close()
	if err := commit(s, profiles(1)); err != nil {
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
// its stream position and its epochs on from there.
func TestShardContinuesFromStartState(t *testing.T) {
	var log cursorLog
	start := sampleSnapshot(true)
	s := New(&fakeWriter{}, start, Options{Publish: log.publish})
	defer s.Close()
	if st := s.Stats(); st.Epoch != 7 || st.Batches != 3 || st.Published != 4 {
		t.Fatalf("stats before any publication = %+v, want epoch 7, batch 3, 4 profiles", st)
	}
	commitSingles(t, s, 2)
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
	s := New(w, &Snapshot{}, Options{})
	defer s.Close()
	if err := commit(s, profiles(4)); err != nil {
		t.Fatal(err)
	}
	// The wait is the caller's to abandon, and the barrier still
	// completes behind the slow apply: a barrier placed after it waits
	// for both.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Quiesce(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("barrier completed before the slow apply: %v", err)
	}
	if err := barrier(s); err != nil {
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
func barrier(s *Shard) error { return s.Quiesce(context.Background()) }
