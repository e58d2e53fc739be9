package blast

// Tests of row ownership: the CNP cut exchange where ties cross shards,
// ownership-hash skew, View consistency, group publication under
// backlog, owned-row accounting, and the slicing that seeds a server's
// shards from one frozen build.

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

// TestPartitionedEquivalenceMatrix runs the cold-rebuild contract over
// Scheme x Pruning on clean-clean data, with the shard and worker counts
// cycling: streamed profiles join E2, so every exchanged aggregate must
// also respect the E1/E2 split — and may not move a single bit.
func TestPartitionedEquivalenceMatrix(t *testing.T) {
	ctx := context.Background()
	schemes := []weights.Scheme{
		{Kind: weights.ChiSquared, Entropy: true},
		{Kind: weights.CBS},
		{Kind: weights.JS},
		{Kind: weights.ARCS, Entropy: true},
		{Kind: weights.ECBS},
		{Kind: weights.EJS},
	}
	prunings := []metablocking.Pruning{
		metablocking.WEP, metablocking.CEP, metablocking.WNP1,
		metablocking.WNP2, metablocking.CNP1, metablocking.CNP2,
		metablocking.BlastWNP,
	}
	shardCounts := []int{1, 2, 4}
	workersAxis := []int{0, 1, 2, 4}
	cfg := 0
	for _, scheme := range schemes {
		for _, pruning := range prunings {
			shards := shardCounts[cfg%len(shardCounts)]
			workers := workersAxis[cfg%len(workersAxis)]
			cfg++
			label := fmt.Sprintf("part/%s/%v/shards=%d/workers=%d", scheme.Name(), pruning, shards, workers)
			rng := stats.NewRNG(uint64(cfg)*9176168613 + 3)
			e1, e2 := model.NewCollection("ref"), model.NewCollection("live")
			for i := 0; i < 30; i++ {
				e1.Append(synthProfile(rng, fmt.Sprintf("a%d", i)))
			}
			for i := 0; i < 20; i++ {
				e2.Append(synthProfile(rng, fmt.Sprintf("b%d", i)))
			}
			ds := &model.Dataset{Name: "cc", Kind: model.CleanClean, E1: e1, E2: e2, Truth: model.NewGroundTruth()}
			opt := DefaultOptions()
			opt.Scheme = scheme
			opt.Pruning = pruning
			opt.Workers = workers
			p, err := NewPipeline(opt)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := p.Serve(ctx, ds, ServerOptions{Shards: shards, SwapOps: 8})
			if err != nil {
				t.Fatalf("%s: Serve: %v", label, err)
			}
			streamed := 0
			for batch := 0; batch < 2; batch++ {
				profs := make([]model.Profile, 7)
				for i := range profs {
					profs[i] = synthProfile(rng, fmt.Sprintf("s%d-%d", batch, i))
				}
				ids, err := srv.InsertAll(ctx, profs)
				if err != nil {
					t.Fatalf("%s: InsertAll: %v", label, err)
				}
				for k, id := range ids {
					if want := 50 + streamed + k; id != want {
						t.Fatalf("%s: id[%d] = %d, want %d", label, k, id, want)
					}
				}
				streamed += len(profs)
				checkServerEquivalence(t, fmt.Sprintf("%s batch %d", label, batch), p, srv)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		}
	}
}

// TestPartitionedCNPCutExchange drives CNP's (cut, tie) exchange where
// it is most fragile: CBS weights are small integers, so nearly every
// node's budget cuts through a run of ties whose tie-break neighbor is
// owned by another shard. Both modes, the default and explicit budgets,
// every shard count — each must match the cold rebuild.
func TestPartitionedCNPCutExchange(t *testing.T) {
	ctx := context.Background()
	for _, pruning := range []metablocking.Pruning{metablocking.CNP1, metablocking.CNP2} {
		for _, k := range []int{0, 1, 3} {
			for _, shards := range []int{1, 2, 4} {
				label := fmt.Sprintf("part/cbs/%v/k=%d/shards=%d", pruning, k, shards)
				rng := stats.NewRNG(uint64(shards*31+k)*7919 + 5)
				opt := DefaultOptions()
				opt.Scheme = weights.Scheme{Kind: weights.CBS}
				opt.Pruning = pruning
				opt.K = k
				p, err := NewPipeline(opt)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := p.Serve(ctx, synthDirty(rng, 60), ServerOptions{
					Shards: shards, SwapOps: 4,
				})
				if err != nil {
					t.Fatalf("%s: Serve: %v", label, err)
				}
				profs := make([]model.Profile, 9)
				for i := range profs {
					profs[i] = synthProfile(rng, fmt.Sprintf("c%d", i))
				}
				if _, err := srv.InsertAll(ctx, profs); err != nil {
					t.Fatalf("%s: InsertAll: %v", label, err)
				}
				checkServerEquivalence(t, label, p, srv)
				if err := srv.Close(); err != nil {
					t.Fatalf("%s: Close: %v", label, err)
				}
			}
		}
	}
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
	checkServerEquivalence(t, "boundary churn", p, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestViewConsistency takes Views while writers stream and checks each
// view is internally consistent: every snapshot behind it sits at the
// view's Batches cursor, and repeated reads through one view never
// change even as the server publishes past it.
func TestViewConsistency(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(77)
	ds := synthDirty(rng, 30)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve(ctx, ds, ServerOptions{Shards: 3, SwapOps: 2})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	v, err := srv.View(ctx)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	before := make([][]Candidate, v.NumProfiles())
	for i := range before {
		before[i] = v.Candidates(i)
	}
	batchesBefore := v.Batches()
	// Publish past the view.
	for b := 0; b < 4; b++ {
		profs := []model.Profile{synthProfile(rng, fmt.Sprintf("v%d", b))}
		if _, err := srv.InsertAll(ctx, profs); err != nil {
			t.Fatalf("InsertAll: %v", err)
		}
	}
	if err := srv.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if got := v.Batches(); got != batchesBefore {
		t.Fatalf("view cursor moved: %d -> %d", batchesBefore, got)
	}
	for i := range before {
		after := v.Candidates(i)
		if len(after) != len(before[i]) {
			t.Fatalf("view read of %d changed after publication", i)
		}
		for k := range after {
			if after[k] != before[i][k] {
				t.Fatalf("view read of %d changed after publication", i)
			}
		}
	}
	// A fresh view observes the later state.
	v2, err := srv.View(ctx)
	if err != nil {
		t.Fatalf("second View: %v", err)
	}
	if v2.Batches() <= batchesBefore {
		t.Fatalf("second view did not advance (%d <= %d)", v2.Batches(), batchesBefore)
	}
	if got, want := v2.NumProfiles(), srv.Admitted(); got != want {
		t.Fatalf("second view covers %d profiles, want %d", got, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// publicationLog samples the published snapshot of every shard and keeps,
// per shard, the insert-stream position (Snapshot.Batches) of each
// publication epoch it saw. Partitioned shards publish in lockstep — the
// k-th publication of every shard covers the same batches, or their
// exchange rounds would pair up states of different collections — so any
// epoch seen on two shards must carry one position.
type publicationLog struct {
	mu   sync.Mutex
	seen []map[uint64]int64
}

func (l *publicationLog) sample(srv *Server) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make([]map[uint64]int64, len(srv.shards))
		for i := range l.seen {
			l.seen[i] = make(map[uint64]int64)
		}
	}
	for i, sh := range srv.shards {
		snap := sh.Snapshot()
		l.seen[i][snap.Epoch] = snap.Batches
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
// waits for every shard to apply each batch, or that yields at random —
// so publications fall due with every kind of backlog behind them. In
// every cell no shard may deadlock (a watchdog bounds the cell), the
// shards' publication sequences must coincide, every admitted profile is
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
					checkServerEquivalence(t, label, p, srv)
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
						for i, sh := range srv2.shards {
							// An adopted snapshot keeps its epoch; a rebuilt one
							// is published above every file on disk.
							if got, want := sh.Snapshot().Epoch, srv.shards[i].Snapshot().Epoch; got != want {
								t.Errorf("%s: shard %d reopened at epoch %d, want the adopted %d", label, i, got, want)
							}
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

// TestPartitionedOwnedRowsServedFromTheSnapshot: Stats().OwnedRows is a
// count carried by the published snapshot, not a re-hash of every
// profile id per call, and equals the hashed count for every shard count
// — on the sliced initial snapshots and on exported ones after inserts.
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
			np := srv.NumProfiles()
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

// assertSameSnapshot compares two snapshots field for field: counters
// and geometry, rows entry for entry, weights and thresholds bit for bit.
func assertSameSnapshot(t *testing.T, label string, want, got *shard.Snapshot) {
	t.Helper()
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.NumProfiles != want.NumProfiles || got.NumEdges != want.NumEdges || got.RetainedPairs != want.RetainedPairs:
		t.Fatalf("%s: %d profiles, %d edges, %d retained pairs; want %d, %d, %d", label,
			got.NumProfiles, got.NumEdges, got.RetainedPairs, want.NumProfiles, want.NumEdges, want.RetainedPairs)
	case got.PartShards != want.PartShards || got.PartShard != want.PartShard || got.Owned != want.Owned:
		t.Fatalf("%s: shard %d of %d owning %d rows, want %d of %d owning %d", label,
			got.PartShard, got.PartShards, got.Owned, want.PartShard, want.PartShards, want.Owned)
	case !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Neighbors, want.Neighbors):
		t.Fatalf("%s: rows differ in shape (%d entries, want %d)", label, len(got.Neighbors), len(want.Neighbors))
	case !slices.EqualFunc(got.Weights, want.Weights, sameBits):
		t.Fatalf("%s: weights differ", label)
	case (got.Theta == nil) != (want.Theta == nil) || !slices.EqualFunc(got.Theta, want.Theta, sameBits):
		t.Fatalf("%s: thresholds differ", label)
	}
}

// TestSliceOwnedMatchesOwnExport pins the rule a server seeds and
// rebuilds its shards by, for every pruning under three weightings: shard
// i's slice (SliceOwned) of the rows one frozen IndexBlocks build
// collects over the shards' union collection equals, row for row and
// counter for counter, what shard i collects and exchanges for itself in
// a 1-, 2- and 3-way export — over the seed collection, and again after
// a batch every shard appended, which is the recovery rebuild's case.
func TestSliceOwnedMatchesOwnExport(t *testing.T) {
	ctx := context.Background()
	schemes := []weights.Scheme{{Kind: weights.ChiSquared, Entropy: true}, {Kind: weights.CBS}, {Kind: weights.EJS}}
	prunings := []metablocking.Pruning{
		metablocking.WEP, metablocking.CEP, metablocking.WNP1, metablocking.WNP2,
		metablocking.CNP1, metablocking.CNP2, metablocking.BlastWNP,
	}
	for si, scheme := range schemes {
		for _, pruning := range prunings {
			label := fmt.Sprintf("%s/%v", scheme.Name(), pruning)
			opt := DefaultOptions()
			opt.Scheme, opt.Pruning = scheme, pruning
			p, err := NewPipeline(opt)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(uint64(si)*7919 + uint64(pruning) + 11)
			ds := synthDirty(rng, 60)
			sch, err := p.InduceSchema(ctx, ds)
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := p.Block(ctx, ds, sch)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]model.Profile, 6)
			for i := range batch {
				batch[i] = synthProfile(rng, fmt.Sprintf("sl%d", i))
			}

			for n := 1; n <= 3; n++ {
				ex := shard.NewExchange(n)
				parts := make([]*partIndex, n)
				for i := range parts {
					parts[i] = newPartIndex(blocks.Collection.Clone(), blocks.Schema, p.opt, i, n, ex)
				}
				for stage, appended := range []bool{false, true} {
					if appended {
						for _, px := range parts {
							if _, err := px.InsertAll(ctx, batch); err != nil {
								t.Fatal(err)
							}
						}
					}
					frozen, err := p.IndexBlocks(ctx, &Blocks{Collection: parts[0].app.Collection(), Schema: blocks.Schema})
					if err != nil {
						t.Fatal(err)
					}
					exports := make([]*shard.Snapshot, n)
					errs := make([]error, n)
					var wg sync.WaitGroup
					for i, px := range parts {
						wg.Add(1)
						go func(i int, px *partIndex) {
							defer wg.Done()
							exports[i], errs[i] = px.Export(ctx)
						}(i, px)
					}
					wg.Wait()
					for i := 0; i < n; i++ {
						if errs[i] != nil {
							t.Fatalf("%s: stage %d export %d/%d: %v", label, stage, i, n, errs[i])
						}
						assertSameSnapshot(t, fmt.Sprintf("%s stage %d shard %d/%d own export vs slice", label, stage, i, n),
							shard.SliceOwned(frozen.rows, i, n), exports[i])
					}
				}
			}
		}
	}
}
