package blast

// Differential tests of sharded snapshot-swap serving: for any
// interleaving of inserts and swaps, a quiesced Server (all shards
// applied + compacted + swapped) must return exactly the Pairs,
// Candidates and Threshold of a cold IndexBlocks over the union
// collection, across Scheme x Pruning x shard counts. Plus the
// consistency, lifecycle, -race stress and goroutine-leak contracts.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
)

// TestServerEquivalenceMatrix streams a batch into servers across
// Scheme x Pruning, the shard and worker counts cycling, checks, pins
// the published View, streams a second batch on top and checks again —
// the aggregate exchange may not move a single bit, nor the pinned
// View.
func TestServerEquivalenceMatrix(t *testing.T) {
	space{
		data:     []data{dirtyData(50, 50)},
		schemes:  sixSchemes,
		prunings: allPrunings,
		workers:  workersAxis,
		targets:  []target{onServer},
		shards:   shardAxis,
		ops:      []op{insertAll(7), check, pin, insertAll(7), check},
	}.run(t)
}

// TestServerShardCountsFullCross runs the default configuration over
// every shard count with a seeded random op sequence at SwapOps 4.
func TestServerShardCountsFullCross(t *testing.T) {
	space{
		targets:     []target{onServer},
		shards:      shardAxis,
		swapOps:     []int{4},
		random:      true,
		crossShards: true,
	}.run(t)
}

// TestServerCleanClean streams profiles into E2 of a clean-clean server
// at three shards: streamed profiles must join the E2 id space.
func TestServerCleanClean(t *testing.T) {
	space{
		data:    []data{cleanData(30, 20)},
		targets: []target{onServer},
		shards:  []int{3},
		swapOps: []int{4},
		ops:     singles(10),
	}.run(t)
}

// TestServerConcurrentSnapshotSwap is the -race stress test: concurrent
// writers, point readers, pair scanners and quiescers interleave with
// per-shard compaction+swap churn (SwapOps=1), then a final quiesce must
// still match the cold rebuild, Close must stop every goroutine, and
// epochs must only ever grow.
func TestServerConcurrentSnapshotSwap(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(23)
	ds := synthDirty(rng, 60)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	srv, err := p.Serve(ctx, ds, ServerOptions{Shards: 3, SwapOps: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Point readers: candidates, thresholds, epochs must never tear.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []Candidate
			lastEpoch := make(map[int]uint64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := srv.NumProfiles()
				id := (i*13 + r) % (n + 2)
				buf = srv.AppendCandidates(buf[:0], id)
				srv.Threshold(id)
				if e := srv.Epoch(id); e < lastEpoch[shard.Owner(int32(id), 3)] {
					t.Errorf("epoch moved backwards on shard of profile %d", id)
					return
				} else {
					lastEpoch[shard.Owner(int32(id), 3)] = e
				}
			}
		}(r)
	}
	// A pair scanner exercising the fan-out merge against live swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.Pairs(ctx); err != nil {
				t.Errorf("Pairs: %v", err)
				return
			}
		}
	}()
	// Concurrent writers and an occasional quiescer.
	var wmu sync.Mutex
	wrng := stats.NewRNG(99)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 8; b++ {
				wmu.Lock()
				profs := make([]model.Profile, 3)
				for i := range profs {
					profs[i] = synthProfile(wrng, fmt.Sprintf("w%d-%d-%d", w, b, i))
				}
				wmu.Unlock()
				if _, err := srv.InsertAll(ctx, profs); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if b%3 == 0 {
					if err := srv.Quiesce(ctx); err != nil {
						t.Errorf("quiesce: %v", err)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	matchesCold(t, "stress", p, srv)
	st := srv.Stats()
	if len(st) != 3 {
		t.Fatalf("stats for %d shards", len(st))
	}
	for _, s := range st {
		if s.Applied != 48 {
			t.Errorf("shard %d applied %d, want 48", s.ID, s.Applied)
		}
		if s.Swaps == 0 {
			t.Errorf("shard %d never swapped", s.ID)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Goroutine-leak check on Close: the shard workers must all exit.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked after Server.Close: %d > %d", n, base)
	}
}

// TestServerBoundaryIDsUnderChurn hammers the id-range boundary while
// writers advance it: reads at and beyond NumProfiles race publications
// that make those very ids valid. The invariants are that a boundary
// read never panics, never returns a nil candidate slice, never serves
// a non-zero threshold for an id that is still beyond every published
// epoch, and that per-shard epochs observed through boundary ids stay
// monotone. Ids beyond the final admission ceiling must read as empty
// throughout, no matter how the race interleaves, and the quiesced
// server must still equal the cold rebuild.
func TestServerBoundaryIDsUnderChurn(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(71)
	ds := synthDirty(rng, 50)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	srv, err := p.Serve(ctx, ds, ServerOptions{Shards: shards, SwapOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The admission ceiling: base profiles plus everything the writers
	// will ever insert. Ids at or past it are invalid for the whole run.
	const writerGoroutines, writerBatches, batchLen = 2, 10, 3
	ceiling := srv.NumProfiles() + writerGoroutines*writerBatches*batchLen

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []Candidate
			lastEpoch := make(map[int]uint64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := srv.NumProfiles()
				// The boundary band [n-1, n+2] races the writers — any id
				// in it may become valid mid-read; the only invariants are
				// non-nil results and monotone epochs. Ids at the ceiling
				// and beyond must stay empty under every interleaving.
				for _, id := range []int{n - 1, n, n + 1, n + 2, ceiling, ceiling + 1 + i%7, 1 << 29, -1} {
					if buf = srv.AppendCandidates(buf[:0], id); buf == nil {
						t.Errorf("AppendCandidates(%d) returned nil under churn", id)
						return
					}
					if id >= ceiling || id < 0 {
						if len(buf) != 0 {
							t.Errorf("Candidates(%d) non-empty beyond the admission ceiling %d", id, ceiling)
							return
						}
						if th := srv.Threshold(id); th != 0 {
							t.Errorf("Threshold(%d) = %v beyond the admission ceiling", id, th)
							return
						}
					} else {
						srv.Threshold(id)
					}
					if id < 0 {
						if e := srv.Epoch(id); e != 0 {
							t.Errorf("Epoch(%d) = %d, want 0", id, e)
							return
						}
						continue
					}
					own := shard.Owner(int32(id), shards)
					if e := srv.Epoch(id); e < lastEpoch[own] {
						t.Errorf("epoch of shard %d moved backwards via boundary id %d", own, id)
						return
					} else {
						lastEpoch[own] = e
					}
				}
			}
		}(r)
	}
	var wmu sync.Mutex
	wrng := stats.NewRNG(173)
	for w := 0; w < writerGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < writerBatches; b++ {
				wmu.Lock()
				profs := make([]model.Profile, batchLen)
				for i := range profs {
					profs[i] = synthProfile(wrng, fmt.Sprintf("edge%d-%d-%d", w, b, i))
				}
				wmu.Unlock()
				if _, err := srv.InsertAll(ctx, profs); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if b%4 == 3 {
					if err := srv.Quiesce(ctx); err != nil {
						t.Errorf("quiesce: %v", err)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Post-churn: everything below the ceiling is now published and must
	// serve; the ceiling itself must still read as empty.
	if err := srv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if n := srv.NumProfiles(); n != ceiling {
		t.Fatalf("NumProfiles = %d after churn, want %d", n, ceiling)
	}
	if c := srv.Candidates(ceiling - 1); len(c) == 0 {
		t.Error("last admitted profile serves no candidates")
	}
	if c := srv.Candidates(ceiling); c == nil || len(c) != 0 {
		t.Errorf("Candidates(ceiling) = %v, want empty non-nil", c)
	}
	matchesCold(t, "boundary churn", p, srv)
}

// TestServerLifecycleAndBoundaries covers the non-happy paths: closed
// servers reject writes but keep serving reads, cancelled contexts
// admit nothing, and options validate. (That out-of-range ids serve
// empty results and reads before any publication see exactly the build
// state, every harness case with a Server checks.)
func TestServerLifecycleAndBoundaries(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(41)
	ds := synthDirty(rng, 30)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Invalid options fail before any work: with a nil dataset, the
	// error must be the options' and not Phase 1's.
	for _, sopt := range []ServerOptions{
		{Shards: -1},
		{Shards: maxServerShards + 1},
		{SyncEvery: 4},
		{MaxPendingRequests: -1},
		{MaxPendingBytes: -1},
	} {
		want := sopt.Validate()
		if _, err := p.Serve(ctx, nil, sopt); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("Serve(nil dataset, %+v) = %v, want the options error %v", sopt, err, want)
		}
	}

	srv, err := p.Serve(ctx, ds, ServerOptions{Shards: 2, SwapOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := srv.InsertAll(cancelled, []model.Profile{synthProfile(rng, "x")}); err != context.Canceled {
		t.Errorf("cancelled InsertAll err = %v", err)
	}
	if admitted := srv.Admitted(); admitted != 30 {
		t.Errorf("cancelled insert admitted profiles: %d", admitted)
	}
	if ids, err := srv.InsertAll(ctx, nil); err != nil || ids != nil {
		t.Errorf("empty InsertAll = %v, %v", ids, err)
	}

	prof := []model.Profile{synthProfile(rng, "y")}
	if _, err := srv.InsertAll(ctx, prof); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := srv.InsertAll(ctx, prof); err != shard.ErrClosed {
		t.Errorf("InsertAll after Close err = %v", err)
	}
	if err := srv.Quiesce(ctx); err != shard.ErrClosed {
		t.Errorf("Quiesce after Close err = %v", err)
	}
	// Reads still serve after Close (the drained insert included).
	if n := srv.NumProfiles(); n < 30 {
		t.Errorf("NumProfiles after Close = %d", n)
	}
	if c := srv.Candidates(0); c == nil {
		t.Error("Candidates after Close returned nil")
	}
	if _, err := srv.Pairs(ctx); err != nil {
		t.Errorf("Pairs after Close: %v", err)
	}
}

// TestServerConsistencyPrefix pins the consistency contract at SwapOps
// 1: after every Insert, reads observe some prefix of the insert
// sequence (the harness checks it after every op), and after a quiesce
// the full sequence.
func TestServerConsistencyPrefix(t *testing.T) {
	space{
		targets: []target{onServer},
		shards:  []int{2},
		swapOps: []int{1},
		ops:     singles(10),
	}.run(t)
}
