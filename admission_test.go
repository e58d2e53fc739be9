package blast

// Tests of the write queue through the Server (InsertAll and the
// writer's queue in internal/shard): group commit, the pending bounds
// held until the writer applies a batch, cancellation, Close, and the
// queue under concurrent writers that cancel and overflow it.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/wal"
)

// insertResult is the outcome of one asynchronous InsertAll call.
type insertResult struct {
	ids []int
	err error
}

// insertAsync runs one InsertAll call on its own goroutine.
func insertAsync(ctx context.Context, srv *Server, batch []model.Profile) <-chan insertResult {
	ch := make(chan insertResult, 1)
	go func() {
		ids, err := srv.InsertAll(ctx, batch)
		ch <- insertResult{ids, err}
	}()
	return ch
}

// waitPending polls until n calls are in the write queue.
func waitPending(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.WriteStats().PendingRequests != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls in the write queue, want %d", srv.WriteStats().PendingRequests, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// walRecords counts the records of a closed durable server's log.
func walRecords(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(durWalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, err := wal.Scan(raw)
	if err != nil {
		t.Fatal(err)
	}
	return len(payloads)
}

// TestServerCoalescing queues calls one by one behind a held commit:
// they are committed as one group — one WAL record, one batch — with
// ids assigned in queue order, contiguous per call, and the reopened
// directory recovers exactly that sequence. A group whose WAL append
// fails fails every call in it and consumes no id.
func TestServerCoalescing(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sopt := ServerOptions{Shards: 2, Dir: dir}
	srv, err := p.Serve(ctx, durDataset(), sopt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	release := holdCommits(srv)
	results := make([]<-chan insertResult, n)
	for k := range results {
		results[k] = insertAsync(ctx, srv, durBatchFor(k))
		waitPending(t, srv, k+1)
	}
	release()
	for k, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatalf("call %d: %v", k, r.err)
		}
		for i, id := range r.ids {
			if want := 40 + k*durBatchSize + i; id != want {
				t.Fatalf("call %d: ids %v, want a run from %d", k, r.ids, 40+k*durBatchSize)
			}
		}
	}
	// A call holds its share of the bounds until the writer has applied
	// it: the queue is empty once the server is quiesced.
	if err := srv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.WriteStats()
	if st.Batches != 1 || st.CoalescedRequests != n || st.AdmittedProfiles != n*durBatchSize || st.PendingRequests != 0 || st.PendingBytes != 0 {
		t.Fatalf("%d calls queued behind one commit: %+v, want one batch of all of them", n, st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := walRecords(t, dir); got != 1 {
		t.Fatalf("one group left %d WAL records, want 1", got)
	}
	srv2, err := p.Serve(ctx, durDataset(), sopt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	checkRecovered(t, "reopened group", p, srv2, n)

	// Close the log out from under the server: the next group's append
	// fails, and with it every call of the group.
	if err := srv2.w.log.Close(); err != nil {
		t.Fatal(err)
	}
	release = holdCommits(srv2)
	for k := range results[:4] {
		results[k] = insertAsync(ctx, srv2, durBatchFor(n+k))
		waitPending(t, srv2, k+1)
	}
	release()
	for k, ch := range results[:4] {
		if r := <-ch; r.err == nil || r.ids != nil {
			t.Errorf("call %d of a group whose append failed: ids %v, err %v", k, r.ids, r.err)
		}
	}
	if got, want := srv2.Admitted(), 40+n*durBatchSize; got != want {
		t.Fatalf("a failed group consumed ids: admitted %d, want %d", got, want)
	}
	if st := srv2.WriteStats(); st.Batches != 0 || st.PendingRequests != 0 {
		t.Fatalf("a failed group counted: %+v", st)
	}
}

// TestServerBackpressure saturates a write queue held behind one commit:
// the queue never holds more than either bound, the calls beyond it
// fail at once with ErrOverloaded, and a rejected call admits nothing.
func TestServerBackpressure(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("requests", func(t *testing.T) {
		sopt := ServerOptions{Shards: 1, MaxPendingRequests: 4, MaxPendingBytes: 1 << 20}
		srv, err := p.Serve(ctx, durDataset(), sopt)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		release := holdCommits(srv)
		const n = 64
		results := make([]<-chan insertResult, n)
		for i := range results {
			results[i] = insertAsync(ctx, srv, []model.Profile{synthProfile(stats.NewRNG(uint64(i)+500), fmt.Sprintf("bp%d", i))})
		}
		deadline := time.Now().Add(10 * time.Second)
		for srv.WriteStats().Rejected != n-int64(sopt.MaxPendingRequests) && time.Now().Before(deadline) {
			if st := srv.WriteStats(); st.PendingRequests > sopt.MaxPendingRequests || st.PendingBytes > sopt.MaxPendingBytes {
				t.Fatalf("queue over its bounds: %+v", st)
			}
			time.Sleep(100 * time.Microsecond)
		}
		waitPending(t, srv, sopt.MaxPendingRequests)
		release()
		ok, shed := 0, 0
		for i, ch := range results {
			switch r := <-ch; {
			case r.err == nil:
				ok++
			case errors.Is(r.err, ErrOverloaded) && r.ids == nil:
				shed++
			default:
				t.Errorf("call %d: ids %v, err %v", i, r.ids, r.err)
			}
		}
		if ok != sopt.MaxPendingRequests || shed != n-ok || srv.WriteStats().Rejected != int64(shed) {
			t.Errorf("%d admitted and %d shed (%+v), want %d and %d", ok, shed, srv.WriteStats(), sopt.MaxPendingRequests, n-sopt.MaxPendingRequests)
		}
		if got, want := srv.Admitted(), 40+ok; got != want {
			t.Errorf("admitted %d profiles, want %d", got, want)
		}
	})

	t.Run("bytes", func(t *testing.T) {
		b0, b1 := durBatchFor(0), durBatchFor(1)
		sopt := ServerOptions{Shards: 2, MaxPendingBytes: profilesBytes(b0) + profilesBytes(b1)}
		srv, err := p.Serve(ctx, durDataset(), sopt)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		release := holdCommits(srv)
		first := insertAsync(ctx, srv, b0)
		waitPending(t, srv, 1)
		second := insertAsync(ctx, srv, b1)
		waitPending(t, srv, 2)
		if ids, err := srv.InsertAll(ctx, durBatchFor(2)); !errors.Is(err, ErrOverloaded) || ids != nil {
			t.Errorf("a call past the byte bound: ids %v, err %v, want ErrOverloaded", ids, err)
		}
		if st := srv.WriteStats(); st.PendingBytes != sopt.MaxPendingBytes || st.PendingRequests != 2 {
			t.Errorf("queue level %+v, want the two calls at the byte bound", st)
		}
		release()
		for _, ch := range []<-chan insertResult{first, second} {
			if r := <-ch; r.err != nil {
				t.Fatal(r.err)
			}
		}
		if got, want := srv.Admitted(), 40+2*durBatchSize; got != want {
			t.Errorf("admitted %d profiles, want %d", got, want)
		}
	})
}

// TestServerCancellation: a call whose context ends while it is queued
// leaves the queue and admits nothing — whether it waits behind the
// head or is the head itself, waiting for the server lock.
func TestServerCancellation(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	release := holdCommits(srv)
	head := insertAsync(ctx, srv, durBatchFor(0))
	waitPending(t, srv, 1)
	wctx, cancel := context.WithCancel(ctx)
	waiter := insertAsync(wctx, srv, durBatchFor(1))
	waitPending(t, srv, 2)
	cancel()
	if r := <-waiter; !errors.Is(r.err, context.Canceled) || r.ids != nil {
		t.Fatalf("canceled waiter: ids %v, err %v", r.ids, r.err)
	}
	waitPending(t, srv, 1)
	release()
	if r := <-head; r.err != nil || r.ids[0] != 40 {
		t.Fatalf("head: ids %v, err %v", r.ids, r.err)
	}

	release = holdCommits(srv)
	hctx, cancel := context.WithCancel(ctx)
	head = insertAsync(hctx, srv, durBatchFor(2))
	waitPending(t, srv, 1)
	waiter = insertAsync(ctx, srv, durBatchFor(3))
	waitPending(t, srv, 2)
	cancel()
	release()
	if r := <-head; !errors.Is(r.err, context.Canceled) || r.ids != nil {
		t.Fatalf("canceled head: ids %v, err %v", r.ids, r.err)
	}
	if r := <-waiter; r.err != nil || r.ids[0] != 40+durBatchSize {
		t.Fatalf("waiter behind a canceled head: ids %v, err %v", r.ids, r.err)
	}
	if got, want := srv.Admitted(), 40+2*durBatchSize; got != want {
		t.Fatalf("admitted %d profiles, want %d", got, want)
	}
	if err := srv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := srv.WriteStats(); st.Canceled != 2 || st.PendingRequests != 0 {
		t.Fatalf("stats %+v, want 2 canceled and an empty queue", st)
	}
}

// TestServerCloseFailsQueuedInserts: Close fails every call still queued
// with shard.ErrClosed — the head waiting for the server lock included —
// and admits nothing of them.
func TestServerCloseFailsQueuedInserts(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	release := holdCommits(srv)
	results := make([]<-chan insertResult, 4)
	for k := range results {
		results[k] = insertAsync(ctx, srv, durBatchFor(k))
		waitPending(t, srv, k+1)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for k, ch := range results[1:] {
		if r := <-ch; !errors.Is(r.err, shard.ErrClosed) {
			t.Errorf("queued call %d: ids %v, err %v, want shard.ErrClosed", k+1, r.ids, r.err)
		}
	}
	release()
	if r := <-results[0]; !errors.Is(r.err, shard.ErrClosed) {
		t.Errorf("head: ids %v, err %v, want shard.ErrClosed", r.ids, r.err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := srv.Admitted(); got != 40 {
		t.Fatalf("Close admitted queued calls: %d profiles", got)
	}
	if _, err := srv.InsertAll(ctx, durBatchFor(9)); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("InsertAll after Close = %v, want shard.ErrClosed", err)
	}
}

// TestServerGroupCommitUnderChurn runs concurrent writers against a
// durable server with a small queue while their contexts end at random.
// A call refused with ErrOverloaded backs off a millisecond and retries
// under a fresh deadline, as a client answered 429 would, so every call
// ends admitted or cancelled by its own deadline, never overloaded.
// Every id is assigned once, contiguous within its call; the admitted
// ids are exactly those returned; the log holds one record per
// committed group; and the quiesced server equals a cold build.
func TestServerGroupCommitUnderChurn(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: 2, Dir: dir, MaxPendingRequests: 6})
	if err != nil {
		t.Fatal(err)
	}
	const writers, calls = 8, 24
	var mu sync.Mutex
	owner := map[int]int{}
	cancelled := 0
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(w) + 77)
			for c := 0; c < calls; c++ {
				k := w*calls + c
				timeout := time.Duration(rng.Intn(1500)) * time.Microsecond
				var ids []int
				err := ErrOverloaded
				for retry := false; errors.Is(err, ErrOverloaded); retry = true {
					if retry {
						time.Sleep(time.Millisecond)
					}
					cctx, cancel := context.WithTimeout(ctx, timeout)
					ids, err = srv.InsertAll(cctx, durBatchFor(k))
					cancel()
				}
				mu.Lock()
				switch {
				case err != nil && ids != nil:
					t.Errorf("call %d failed with ids %v: %v", k, ids, err)
				case err != nil:
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("call %d: %v", k, err)
					}
					cancelled++
				case len(ids) != durBatchSize:
					t.Errorf("call %d: %d ids", k, len(ids))
				default:
					for i, id := range ids {
						if id != ids[0]+i {
							t.Errorf("call %d: ids %v not contiguous", k, ids)
						}
						if prev, dup := owner[id]; dup {
							t.Errorf("id %d assigned to calls %d and %d", id, prev, k)
						}
						owner[id] = k
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if got, want := srv.Admitted(), 40+len(owner); got != want {
		t.Fatalf("admitted %d profiles, returned %d ids", got-40, len(owner))
	}
	for id := 40; id < srv.Admitted(); id++ {
		if _, ok := owner[id]; !ok {
			t.Fatalf("admitted id %d was returned to no call", id)
		}
	}
	if err := srv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.WriteStats()
	if st.AdmittedProfiles != int64(len(owner)) || st.PendingRequests != 0 || st.PendingBytes != 0 {
		t.Fatalf("stats %+v after %d admitted profiles", st, len(owner))
	}
	if admitted := len(owner) / durBatchSize; admitted+cancelled != writers*calls {
		t.Fatalf("of %d calls, %d ended admitted and %d cancelled", writers*calls, admitted, cancelled)
	}
	t.Logf("%d calls: %d admitted in %d groups, %d cancelled by their deadline (%d overloaded refusals retried, %d cancelled in the queue)",
		writers*calls, len(owner)/durBatchSize, st.Batches, cancelled, st.Rejected, st.Canceled)
	matchesCold(t, "churned queue", p, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := walRecords(t, dir); int64(got) != st.Batches {
		t.Fatalf("%d WAL records for %d committed groups", got, st.Batches)
	}
}

// TestServerAdmissionBoundCoversApply holds the writer inside a
// publication's freeze — one party of a two-party freeze blocks in
// writer.failParty — and admits until ErrOverloaded. A call holds its
// share of MaxPendingRequests and MaxPendingBytes until the writer has
// applied it, so exactly the bound is admitted behind the held freeze,
// at SwapOps 1 (the trigger batch's own publication) and at the default
// (a Quiesce's), the rest fail with nil ids and admit nothing, and no
// more batches wait for the writer than the bound. Released and
// quiesced, the server equals a cold build over the seed plus the
// admitted batches; a durable server's kill image taken during the hold,
// and its directory closed during the hold, reopen with exactly those.
func TestServerAdmissionBoundCoversApply(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const held, calls = 4, 12
	var heldBytes int64
	for k := 1; k <= held; k++ {
		heldBytes += profilesBytes(durBatchFor(k))
	}
	for _, leg := range []struct {
		name string
		sopt ServerOptions
	}{
		{"requests/swap=1", ServerOptions{SwapOps: 1, MaxPendingRequests: held}},
		{"requests/swap=default", ServerOptions{MaxPendingRequests: held}},
		{"bytes/swap=1", ServerOptions{SwapOps: 1, MaxPendingBytes: heldBytes}},
		{"durable/swap=1", ServerOptions{SwapOps: 1, MaxPendingRequests: held, Dir: "dir"}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			sopt := leg.sopt
			sopt.Shards = 2
			if sopt.Dir != "" {
				sopt.Dir = t.TempDir()
			}
			srv, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			entered, gate := make(chan struct{}, 1), make(chan struct{})
			srv.w.failParty = func(part int) error {
				if part == 0 {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-gate
				}
				return nil
			}
			release := sync.OnceFunc(func() { close(gate) })
			defer release()
			// Batch 0 puts the writer into a freeze: its own publication at
			// SwapOps 1, a Quiesce's at the default. Either way it has been
			// applied, and its share of the bounds released, once the
			// freeze is entered.
			if _, err := srv.InsertAll(ctx, durBatchFor(0)); err != nil {
				t.Fatal(err)
			}
			quiesced := make(chan error, 1)
			if sopt.SwapOps != 1 {
				go func() { quiesced <- srv.Quiesce(ctx) }()
			} else {
				quiesced <- nil
			}
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the writer never entered a freeze")
			}
			admitted := 0
			for k := 1; k <= calls; k++ {
				switch ids, err := srv.InsertAll(ctx, durBatchFor(k)); {
				case err == nil:
					if k != admitted+1 {
						t.Fatalf("call %d admitted after a rejection", k)
					}
					admitted++
				case !errors.Is(err, ErrOverloaded) || ids != nil:
					t.Fatalf("call %d: ids %v, err %v, want ErrOverloaded", k, ids, err)
				}
				if q := srv.Stats()[0].Queued; q > held {
					t.Fatalf("%d batches wait for the held writer, bound %d", q, held)
				}
			}
			st := srv.WriteStats()
			if admitted != held || st.Rejected != calls-held || st.PendingRequests != held || srv.Admitted() != 40+(1+held)*durBatchSize {
				t.Fatalf("%d calls admitted behind a held freeze (%+v, %d profiles), want %d", admitted, st, srv.Admitted(), held)
			}
			if sopt.MaxPendingBytes > 0 && st.PendingBytes != heldBytes {
				t.Fatalf("%d bytes pending behind a held freeze, want the bound %d", st.PendingBytes, heldBytes)
			}
			if sopt.Dir != "" {
				image := t.TempDir()
				copyTree(t, sopt.Dir, image)
				killOpt := sopt
				killOpt.Dir = image
				srv2, err := p.Serve(ctx, durDataset(), killOpt)
				if err != nil {
					t.Fatalf("reopen the kill image: %v", err)
				}
				checkRecovered(t, "kill image taken while held", p, srv2, 1+held)
				if err := srv2.Close(); err != nil {
					t.Fatal(err)
				}
				closed := make(chan error, 1)
				go func() { closed <- srv.Close() }()
				for {
					_, err := srv.InsertAll(ctx, durBatchFor(calls+1))
					if errors.Is(err, shard.ErrClosed) {
						break
					}
					if !errors.Is(err, ErrOverloaded) {
						t.Fatalf("a call while Close waits on the held writer: %v", err)
					}
					runtime.Gosched()
				}
				release()
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
				srv3, err := p.Serve(ctx, durDataset(), sopt)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer srv3.Close()
				checkRecovered(t, "closed while held", p, srv3, 1+held)
				return
			}
			release()
			if err := <-quiesced; err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, leg.name, p, srv, 1+held)
			if st := srv.WriteStats(); st.PendingRequests != 0 || st.PendingBytes != 0 {
				t.Fatalf("a quiesced server holds %+v of its bounds", st)
			}
		})
	}
}
