package blast

// Regression tests for the serving-path correctness fixes: Pairs must
// observe one position of the insert sequence (never a mix of epochs),
// and the Quiesce/Close error semantics must follow the documented
// state machine — closed servers report shard.ErrClosed, a poisoned
// server reports its real failure, and Close always releases its
// resources even when a publication failed.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"blast/internal/shard"
)

// TestServerPairsEpochConsistency streams batches while hammering Pairs
// from concurrent readers: every result must be byte-identical to some
// PREFIX of the insert sequence — a state the server actually passed
// through — never a cross-shard mix of different prefixes. Run with
// -race in CI.
func TestServerPairsEpochConsistency(t *testing.T) {
	ctx := context.Background()
	const batches = 6
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Reference digests: the Pairs of every batch prefix, from an
	// isolated single-shard server driven through the same sequence.
	digests := make(map[string]int, batches+1)
	ref, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	snapshotDigest := func(srv *Server) string {
		pairs, err := srv.Pairs(ctx)
		if err != nil {
			t.Fatalf("reference Pairs: %v", err)
		}
		return fmt.Sprint(pairs)
	}
	digests[snapshotDigest(ref)] = 0
	for k := 0; k < batches; k++ {
		if _, err := ref.InsertAll(ctx, durBatchFor(k)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		digests[snapshotDigest(ref)] = k + 1
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Live server: 3 shards swapping on every batch, so publications
	// churn as fast as they possibly can while readers scan.
	srv, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: 3, SwapOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < batches; k++ {
			if _, err := srv.InsertAll(ctx, durBatchFor(k)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				pairs, err := srv.Pairs(ctx)
				if err != nil {
					t.Errorf("Pairs: %v", err)
					return
				}
				if _, ok := digests[fmt.Sprint(pairs)]; !ok {
					t.Error("Pairs returned a state matching no prefix of the insert sequence")
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := snapshotDigest(srv); digests[got] != batches {
		t.Fatalf("quiesced Pairs matches prefix %d, want %d", digests[got], batches)
	}
}

// TestServerQuiesceCloseSemantics pins the error state machine across
// healthy, poisoned, and closed servers.
func TestServerQuiesceCloseSemantics(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("healthy", func(t *testing.T) {
		srv, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Quiesce(ctx); err != nil {
			t.Fatalf("Quiesce on healthy server: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := srv.Quiesce(ctx); !errors.Is(err, shard.ErrClosed) {
			t.Fatalf("Quiesce after Close = %v, want shard.ErrClosed", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})

	// One party of the next publication fails: its exchange is poisoned,
	// every party returns, the publication fails and the writer's error
	// goes sticky, while the state published before keeps serving.
	t.Run("poisoned-worker", func(t *testing.T) {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
				base := runtime.NumGoroutine()
				srv, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				before, err := srv.Pairs(ctx)
				if err != nil {
					t.Fatal(err)
				}
				np, epoch := srv.NumProfiles(), srv.Epoch(0)
				boom := errors.New("shard wedged")
				var entered sync.Map
				srv.w.failParty = func(part int) error {
					entered.Store(part, true)
					if part == shards-1 {
						return boom
					}
					return nil
				}
				if _, err := srv.InsertAll(ctx, durBatchFor(0)); err != nil {
					t.Fatalf("admission must succeed (failure is async): %v", err)
				}
				// Quiesce reports the real failure — not ErrClosed, not nil —
				// and returns only once every party of the failed freeze has.
				if err := srv.Quiesce(ctx); !errors.Is(err, boom) || errors.Is(err, shard.ErrClosed) {
					t.Fatalf("Quiesce on poisoned server = %v, want the worker error", err)
				}
				for part := 0; part < shards; part++ {
					if _, ok := entered.Load(part); !ok {
						t.Fatalf("party %d of %d never ran", part, shards)
					}
				}
				// /healthz reports Err.
				if err := srv.Err(); !errors.Is(err, boom) {
					t.Fatalf("Err = %v, want sticky worker error", err)
				}
				after, err := srv.Pairs(ctx)
				if err != nil {
					t.Fatal(err)
				}
				assertSamePairs(t, "after the failed publication", before, after)
				if got, gotEpoch := srv.NumProfiles(), srv.Epoch(0); got != np || gotEpoch != epoch {
					t.Fatalf("serving %d profiles at epoch %d after the failed publication, want the earlier %d at %d", got, gotEpoch, np, epoch)
				}
				// Admission is now rejected with the sticky error.
				if _, err := srv.InsertAll(ctx, durBatchFor(1)); !errors.Is(err, boom) {
					t.Fatalf("InsertAll after poisoning = %v, want sticky error", err)
				}
				// Close surfaces the failure but still releases every worker.
				if err := srv.Close(); !errors.Is(err, boom) {
					t.Fatalf("Close on poisoned server = %v, want the worker error", err)
				}
				if err := srv.Close(); err != nil {
					t.Fatalf("second Close = %v, want nil (already released)", err)
				}
				if err := srv.Quiesce(ctx); !errors.Is(err, shard.ErrClosed) {
					t.Fatalf("Quiesce after Close = %v, want shard.ErrClosed", err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
					time.Sleep(5 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > base {
					t.Errorf("Close on poisoned server leaked goroutines: %d > %d", n, base)
				}
			})
		}
	})

	t.Run("wal-append-failure", func(t *testing.T) {
		dir := t.TempDir()
		sopt := ServerOptions{Shards: 2, Dir: dir, SyncEvery: 1}
		srv, err := p.Serve(ctx, durDataset(), sopt)
		if err != nil {
			t.Fatal(err)
		}
		durInsert(t, srv, 0, 2)
		// Close the log out from under the server: the next append fails,
		// so the batch is not admitted — and since nothing was left on the
		// log, the server is not broken either.
		if err := srv.w.log.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.InsertAll(ctx, durBatchFor(2)); err == nil {
			t.Fatal("InsertAll succeeded with a dead WAL")
		}
		if err := srv.Err(); err != nil {
			t.Fatalf("a failed append that left no record broke the server: %v", err)
		}
		if got := srv.Admitted(); got != 40+2*durBatchSize {
			t.Fatalf("failed journaling admitted profiles: %d", got)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// The directory recovers to exactly the journaled prefix.
		srv2, err := p.Serve(ctx, durDataset(), sopt)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		checkRecovered(t, "after append failure", p, srv2, 2)
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
