package blast

// Tests of row ownership: the CNP cut exchange where ties cross shards,
// ownership-hash skew, reads that never block, View consistency, group
// publication under backlog, owned-row accounting, and the join of the
// shards' exports into the state a frozen build holds.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"
	"time"

	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/weights"
)

// TestPartitionedEquivalenceMatrix runs the server matrix on
// clean-clean data: streamed profiles join E2, so every exchanged
// aggregate must also respect the E1/E2 split.
func TestPartitionedEquivalenceMatrix(t *testing.T) {
	space{
		data:     []data{cleanData(30, 20)},
		schemes:  sixSchemes,
		prunings: allPrunings,
		workers:  workersAxis,
		targets:  []target{onServer},
		shards:   shardAxis,
		ops:      []op{insertAll(7), check, pin, insertAll(7), check},
	}.run(t)
}

// TestPartitionedCNPCutExchange drives CNP's (cut, tie) exchange where
// it is most fragile: CBS weights are small integers, so nearly every
// node's budget cuts through a run of ties whose tie-break neighbor is
// owned by another shard. Both modes, the default and explicit budgets,
// every shard count — each must match the cold rebuild.
func TestPartitionedCNPCutExchange(t *testing.T) {
	space{
		data:        []data{dirtyData(60, 60)},
		schemes:     []weights.Scheme{{Kind: weights.CBS}},
		prunings:    []metablocking.Pruning{metablocking.CNP1, metablocking.CNP2},
		k:           []int{0, 1, 3},
		targets:     []target{onServer},
		shards:      shardAxis,
		swapOps:     []int{4},
		ops:         []op{insertAll(9), check},
		crossShards: true,
	}.run(t)
}

// TestOwnerSkew checks the SplitMix64 ownership hash spreads dense
// sequential ids evenly: for 1..8 shards over a large id range, no
// shard's share may deviate from the uniform share by more than 10%.
func TestOwnerSkew(t *testing.T) {
	const ids = 1 << 16
	for n := 1; n <= 8; n++ {
		counts := make([]int, n)
		for p := 0; p < ids; p++ {
			counts[shard.Owner(int32(p), n)]++
		}
		want := float64(ids) / float64(n)
		for sh, c := range counts {
			if dev := (float64(c) - want) / want; dev > 0.10 || dev < -0.10 {
				t.Fatalf("n=%d: shard %d owns %d of %d ids (%.1f%% off uniform)",
					n, sh, c, ids, dev*100)
			}
		}
	}
}

// TestPartitionedBoundaryIDsUnderChurn hammers point reads at and past
// the admitted-id frontier while a writer streams single profiles at
// SwapOps 2: reads must never panic, and candidates for ids beyond
// every published snapshot must come back empty, not fabricated.
func TestPartitionedBoundaryIDsUnderChurn(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(424243)
	ds := synthDirty(rng, 30)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve(ctx, ds, ServerOptions{Shards: 3, SwapOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		wrng := stats.NewRNG(99)
		// The stream is bounded: with SwapOps 2 nearly every applied
		// profile re-exports O(index) owned state on its shard, so an
		// unbounded writer makes the final quiesce quadratic in the
		// admitted backlog. 250 singles still drive >100 publishes per
		// shard across the probe loop.
		for i := 0; i < 250; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			profs := []model.Profile{synthProfile(wrng, fmt.Sprintf("churn%d", i))}
			if _, err := srv.InsertAll(ctx, profs); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2000; i++ {
		frontier := srv.Admitted()
		for _, probe := range []int{frontier - 1, frontier, frontier + 1, frontier + 1000, -1} {
			cands := srv.Candidates(probe)
			if probe >= srv.Admitted() || probe < 0 {
				if len(cands) != 0 {
					t.Fatalf("Candidates(%d) fabricated %d results past the frontier", probe, len(cands))
				}
			}
			_ = srv.Threshold(probe)
			_ = srv.Epoch(probe)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	matchesCold(t, "boundary churn", p, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadsNeverBlock: every read is one load of the published state —
// none takes the server lock or places a barrier — so reads, View and
// Pairs answer while a group commit holds the lock, and out-of-range
// ids keep their answers.
func TestReadsNeverBlock(t *testing.T) {
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
	defer release()
	done := make(chan error, 1)
	go func() {
		v, err := srv.View(ctx)
		if err != nil {
			done <- err
			return
		}
		pairs, err := srv.Pairs(ctx)
		switch {
		case err != nil:
			done <- err
		case v.NumProfiles() != 40 || srv.NumProfiles() != 40 || len(pairs) == 0:
			done <- fmt.Errorf("view over %d profiles, server over %d, %d pairs", v.NumProfiles(), srv.NumProfiles(), len(pairs))
		case srv.Epoch(-1) != 0 || v.Epoch(-1) != 0 || srv.Threshold(-1) != 0 || len(srv.Candidates(-1)) != 0 || len(srv.Candidates(1<<20)) != 0:
			done <- errors.New("an out-of-range id changed its answer")
		default:
			done <- nil
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read blocked on the server lock")
	}
}

// TestViewConsistency pins a View, publishes past it at SwapOps 2 and
// checks that repeated reads through the view never change, and that a
// fresh view, quiesced, sits at the batches admitted and covers every
// admitted profile (the harness's pin and check).
func TestViewConsistency(t *testing.T) {
	space{
		data:    []data{dirtyData(30, 30)},
		targets: []target{onServer},
		shards:  []int{3},
		swapOps: []int{2},
		ops:     []op{pin, {}, {}, {}, {}, check},
	}.run(t)
}

// publicationLog samples the last publication every partition's Stats
// entry reports and keeps, per partition, the profile count
// (Stats.Published) of each publication epoch it saw. Every publication
// is one state of the one writer, so any epoch seen on two partitions
// must carry one count.
type publicationLog struct {
	mu   sync.Mutex
	seen []map[uint64]int64
}

func (l *publicationLog) sample(srv *Server) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make([]map[uint64]int64, srv.NumShards())
		for i := range l.seen {
			l.seen[i] = make(map[uint64]int64)
		}
	}
	for i, st := range srv.Stats() {
		l.seen[i][st.Epoch] = int64(st.Published)
	}
}

// check asserts the sampled sequences agree wherever they overlap and
// that later publications cover more of the stream.
func (l *publicationLog) check(t *testing.T, label string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	merged := make(map[uint64]int64)
	for i, seen := range l.seen {
		for epoch, batches := range seen {
			if prev, ok := merged[epoch]; ok && prev != batches {
				t.Fatalf("%s: publication %d covers %d batches on shard %d and %d on another", label, epoch, batches, i, prev)
			}
			merged[epoch] = batches
		}
	}
	epochs := make([]uint64, 0, len(merged))
	for epoch := range merged {
		epochs = append(epochs, epoch)
	}
	slices.Sort(epochs)
	for k := 1; k < len(epochs); k++ {
		if a, b := merged[epochs[k-1]], merged[epochs[k]]; b <= a {
			t.Fatalf("%s: publication %d covers %d batches, publication %d before it %d", label, epochs[k], b, epochs[k-1], a)
		}
	}
}

// copyTree copies a directory as a SIGKILL would leave it: the files as
// they are on disk right now, nothing flushed or closed on their behalf.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedAlignmentUnderBacklog drives group publication through
// the public API: partitioned servers of 1, 2 and 4 shards, at SwapOps
// 2, 16 and 256, are fed one seeded stream by a writer that bursts, that
// waits for the server to apply each batch, or that yields at random —
// so publications fall due with every kind of backlog behind them. In
// every cell no publication may deadlock (a watchdog bounds the cell),
// the partitions' publication sequences must coincide, every admitted profile is
// visible after Quiesce, and Pairs/Candidates/Threshold equal a cold
// IndexBlocks over the served collection. The durable cells then reopen
// a kill image of the quiesced directory: it must adopt the snapshots
// published at the log's last record (no rebuild) and serve equal pairs.
func TestPartitionedAlignmentUnderBacklog(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const base, nBatches = 40, 14
	cell := 0
	for i, shards := range []int{1, 2, 4} {
		for j, swapOps := range []int{2, 16, 256} {
			for k, pacing := range []string{"burst", "lockstep", "yields"} {
				cell++
				// A third of the cells run durable, laid out as a Latin square
				// so every pair of axis values meets a durable cell once.
				durable := (i+j+k)%3 == 0
				label := fmt.Sprintf("shards=%d/swap=%d/%s/durable=%v", shards, swapOps, pacing, durable)
				seed := uint64(cell)*2654435761 + 17
				// The watchdog: a cell that deadlocks — shards waiting on an
				// exchange round a peer will never join — takes the binary
				// down with every goroutine's stack instead of hanging it.
				watchdog := time.AfterFunc(2*time.Minute, func() { panic(label + ": deadlocked") })
				func() {
					defer watchdog.Stop()
					rng := stats.NewRNG(seed)
					ds := synthDirty(rng, base)
					sopt := ServerOptions{Shards: shards, SwapOps: swapOps}
					if durable {
						sopt.Dir, sopt.SnapshotEvery, sopt.SyncEvery = t.TempDir(), 1, 1
					}
					srv, err := p.Serve(ctx, ds, sopt)
					if err != nil {
						t.Fatalf("%s: Serve: %v", label, err)
					}
					var log publicationLog
					stop := make(chan struct{})
					var sampler sync.WaitGroup
					stopSampler := sync.OnceFunc(func() {
						close(stop)
						sampler.Wait()
					})
					defer stopSampler()
					sampler.Add(1)
					go func() {
						defer sampler.Done()
						for {
							select {
							case <-stop:
								return
							default:
								log.sample(srv)
								runtime.Gosched()
							}
						}
					}()
					for b := 1; b <= nBatches; b++ {
						profs := make([]model.Profile, 1+rng.Intn(5))
						for i := range profs {
							profs[i] = synthProfile(rng, fmt.Sprintf("a%d-%d", b, i))
						}
						if _, err := srv.InsertAll(ctx, profs); err != nil {
							t.Fatalf("%s: InsertAll: %v", label, err)
						}
						switch pacing {
						case "lockstep":
							for applied := false; !applied; {
								applied = true
								for _, st := range srv.Stats() {
									applied = applied && st.Batches == int64(b)
								}
								runtime.Gosched()
							}
							log.sample(srv)
						case "yields":
							for n := rng.Intn(40); n > 0; n-- {
								runtime.Gosched()
							}
						}
					}
					if err := srv.Quiesce(ctx); err != nil {
						t.Fatalf("%s: Quiesce: %v", label, err)
					}
					stopSampler()
					log.sample(srv)
					log.check(t, label)
					for i, st := range srv.Stats() {
						if first := srv.Stats()[0]; st.Epoch != first.Epoch || st.Swaps != first.Swaps || st.Batches != nBatches {
							t.Errorf("%s: shard %d at epoch %d after %d swaps and %d batches, shard 0 at epoch %d after %d",
								label, i, st.Epoch, st.Swaps, st.Batches, first.Epoch, first.Swaps)
						}
					}
					matchesCold(t, label, p, srv)
					if durable {
						want, err := srv.Pairs(ctx)
						if err != nil {
							t.Fatalf("%s: Pairs: %v", label, err)
						}
						image := t.TempDir()
						copyTree(t, sopt.Dir, image)
						killOpt := sopt
						killOpt.Dir = image
						srv2, err := p.Serve(ctx, synthDirty(stats.NewRNG(seed), base), killOpt)
						if err != nil {
							t.Fatalf("%s: reopen from the kill image: %v", label, err)
						}
						// An adopted snapshot keeps its epoch; a rebuilt one is
						// published above every file on disk.
						if got, want := srv2.Epoch(0), srv.Epoch(0); got != want {
							t.Errorf("%s: reopened at epoch %d, want the adopted %d", label, got, want)
						}
						got, err := srv2.Pairs(ctx)
						if err != nil {
							t.Fatalf("%s: recovered Pairs: %v", label, err)
						}
						assertSamePairs(t, label+" kill image", want, got)
						if err := srv2.Close(); err != nil {
							t.Fatalf("%s: recovered Close: %v", label, err)
						}
					}
					if err := srv.Close(); err != nil {
						t.Fatalf("%s: Close: %v", label, err)
					}
				}()
			}
		}
	}
}

// TestServerAppliesEachBatchOnce: a Server appends every admitted batch
// once, to one collection, whatever ServerOptions.Shards is. The bytes
// allocated while 64 batches are admitted and applied — with no
// publication (SwapOps -1), whose freeze would swamp the reading — at
// four shards stay within 1.25x of the figure at one shard; N writers,
// each tokenizing and appending every batch, read about N times it.
func TestServerAppliesEachBatchOnce(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const batches = 64
	allocated := func(shards int) uint64 {
		srv, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: shards, SwapOps: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// A collection flushes every P's allocation cache, whose slots the
		// metric counts only once flushed.
		sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		runtime.GC()
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		for k := 0; k < batches; k++ {
			if _, err := srv.InsertAll(ctx, durBatchFor(k)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for applied := false; !applied; {
			applied = true
			for _, st := range srv.Stats() {
				applied = applied && st.Applied == batches*durBatchSize
			}
			if time.Now().After(deadline) {
				t.Fatalf("shards=%d: batches not applied: %+v", shards, srv.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64() - before
	}
	one, four := allocated(1), allocated(4)
	if float64(four) > 1.25*float64(one) {
		t.Errorf("admitting and applying %d batches allocated %d bytes at 4 shards, %d at 1 (%.2fx, want at most 1.25x)",
			batches, four, one, float64(four)/float64(one))
	}
	t.Logf("allocated %d bytes at 1 shard, %d at 4 (%.2fx)", one, four, float64(four)/float64(one))
}

// TestPartitionedOwnedRowsServedFromTheSnapshot: Stats().OwnedRows is
// the partition's share of the published state, counted once at start,
// then at every publication — not a re-hash of every profile id per
// call — and equals the hashed count for every shard count;
// the shares' ResidentBytes sum to the state's 12 bytes a retained entry
// plus 16 a profile.
func TestPartitionedOwnedRowsServedFromTheSnapshot(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for shards := 1; shards <= 4; shards++ {
		rng := stats.NewRNG(uint64(shards) * 65537)
		srv, err := p.Serve(ctx, synthDirty(rng, 37), ServerOptions{Shards: shards, SwapOps: 4})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			np, resident := srv.NumProfiles(), int64(0)
			for i, st := range srv.Stats() {
				hashed := 0
				for u := 0; u < np; u++ {
					if shard.Owner(int32(u), shards) == i {
						hashed++
					}
				}
				if st.OwnedRows != hashed || st.Published != np {
					t.Fatalf("shards=%d %s: shard %d reports %d owned rows of %d profiles, hashed count %d of %d",
						shards, stage, i, st.OwnedRows, st.Published, hashed, np)
				}
				resident += st.ResidentBytes
			}
			pairs, err := srv.Pairs(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := 24*int64(len(pairs)) + 16*int64(np); resident != want {
				t.Fatalf("shards=%d %s: shards hold %d resident bytes between them, the state %d", shards, stage, resident, want)
			}
		}
		check("initial")
		for b := 0; b < 3; b++ {
			profs := make([]model.Profile, 5)
			for i := range profs {
				profs[i] = synthProfile(rng, fmt.Sprintf("o%d-%d", b, i))
			}
			if _, err := srv.InsertAll(ctx, profs); err != nil {
				t.Fatal(err)
			}
			if err := srv.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("after batch %d", b))
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinOwnedMatchesFrozenRows pins the rule a server publishes by,
// for every pruning under three weightings: the writer's freeze by the
// parties of every partition of shardAxis — each collecting and
// exchanging for itself, their rows joined by JoinOwned — equals, row
// for row and counter for counter (the comparer's rows check), the
// rows one frozen IndexBlocks build collects: the model over the seed
// collection, and a cold build after the writer appended a batch.
func TestJoinOwnedMatchesFrozenRows(t *testing.T) {
	space{
		data:        []data{dirtyData(60, 60)},
		schemes:     []weights.Scheme{{Kind: weights.ChiSquared, Entropy: true}, {Kind: weights.CBS}, {Kind: weights.EJS}},
		prunings:    allPrunings,
		targets:     []target{onServer},
		shards:      shardAxis,
		ops:         []op{insertAll(6), check},
		crossShards: true,
	}.run(t)
}
