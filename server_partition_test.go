package blast

// Differential tests of the partitioned topology: a quiesced
// partitioned server must be byte-identical to a replicated server over
// the same insert sequence AND to a cold IndexBlocks over the union
// collection, across Scheme x Pruning x shard counts — the partitioned
// aggregate exchange may not move a single bit. Plus ownership-hash
// skew, boundary-id churn and View consistency contracts.

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/weights"
)

// TestPartitionedEquivalenceMatrix runs the cold-rebuild contract over
// Scheme x Pruning with the shard and worker counts cycling, all under
// the partitioned topology.
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
			ds := synthDirty(rng, 50)
			opt := DefaultOptions()
			opt.Scheme = scheme
			opt.Pruning = pruning
			opt.Workers = workers
			p, err := NewPipeline(opt)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := p.Serve(ctx, ds, ServerOptions{
				Shards: shards, Topology: TopologyPartitioned, SwapOps: 8,
			})
			if err != nil {
				t.Fatalf("%s: Serve: %v", label, err)
			}
			if got := srv.Topology(); got != TopologyPartitioned {
				t.Fatalf("%s: Topology = %v", label, got)
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
					Shards: shards, Topology: TopologyPartitioned, SwapOps: 4,
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

// TestPartitionedMatchesReplicated runs the same insert sequence
// through both topologies and compares every observable directly —
// pairs, per-profile candidates, thresholds, epoch-independent global
// counters — plus the partitioned residency accounting.
func TestPartitionedMatchesReplicated(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		rng := stats.NewRNG(uint64(shards)*104729 + 1)
		ds := synthDirty(rng, 45)
		p, err := NewPipeline(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		run := func(topo Topology) *Server {
			t.Helper()
			srv, err := p.Serve(ctx, ds, ServerOptions{Shards: shards, Topology: topo, SwapOps: 4})
			if err != nil {
				t.Fatalf("shards=%d %v: Serve: %v", shards, topo, err)
			}
			srng := stats.NewRNG(uint64(shards)*31 + 5)
			for b := 0; b < 3; b++ {
				profs := make([]model.Profile, 1+srng.Intn(5))
				for i := range profs {
					profs[i] = synthProfile(srng, fmt.Sprintf("b%d-%d", b, i))
				}
				if _, err := srv.InsertAll(ctx, profs); err != nil {
					t.Fatalf("shards=%d %v: InsertAll: %v", shards, topo, err)
				}
			}
			if err := srv.Quiesce(ctx); err != nil {
				t.Fatalf("shards=%d %v: Quiesce: %v", shards, topo, err)
			}
			return srv
		}
		rep := run(TopologyReplicated)
		part := run(TopologyPartitioned)

		label := fmt.Sprintf("shards=%d", shards)
		rp, err := rep.Pairs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := part.Pairs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePairs(t, label+" pairs", rp, pp)
		if got, want := part.NumProfiles(), rep.NumProfiles(); got != want {
			t.Fatalf("%s: NumProfiles = %d, want %d", label, got, want)
		}
		var rc, pc []Candidate
		for i := 0; i < rep.NumProfiles(); i++ {
			if rt, pt := rep.Threshold(i), part.Threshold(i); rt != pt {
				t.Fatalf("%s: Threshold(%d) = %v, want %v", label, i, pt, rt)
			}
			rc = rep.AppendCandidates(rc[:0], i)
			pc = part.AppendCandidates(pc[:0], i)
			if len(rc) != len(pc) {
				t.Fatalf("%s: Candidates(%d): %d, want %d", label, i, len(pc), len(rc))
			}
			for k := range rc {
				if rc[k] != pc[k] {
					t.Fatalf("%s: Candidates(%d)[%d] = %+v, want %+v", label, i, k, pc[k], rc[k])
				}
			}
		}

		// Residency: every profile owned exactly once, global counters
		// shared, per-shard entries strictly partial when sharded.
		pst := part.Stats()
		rst := rep.Stats()
		ownedTotal := 0
		for _, st := range pst {
			ownedTotal += st.OwnedRows
		}
		if want := part.NumProfiles(); ownedTotal != want {
			t.Fatalf("%s: owned rows sum to %d, want %d", label, ownedTotal, want)
		}
		for i, st := range rst {
			if st.OwnedRows != rep.NumProfiles() {
				t.Fatalf("%s: replicated shard %d owns %d rows, want all %d", label, i, st.OwnedRows, rep.NumProfiles())
			}
		}
		if shards > 1 {
			for i, st := range pst {
				if st.ResidentBytes >= rst[0].ResidentBytes {
					t.Fatalf("%s: partitioned shard %d resident %d bytes, not below replicated %d",
						label, i, st.ResidentBytes, rst[0].ResidentBytes)
				}
			}
		}
		if err := rep.Close(); err != nil {
			t.Fatal(err)
		}
		if err := part.Close(); err != nil {
			t.Fatal(err)
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
// the admitted-id frontier of a partitioned server while writers
// stream batches: reads must never panic, and candidates for ids beyond
// every published snapshot must come back empty, not fabricated.
func TestPartitionedBoundaryIDsUnderChurn(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(424243)
	ds := synthDirty(rng, 30)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve(ctx, ds, ServerOptions{Shards: 3, Topology: TopologyPartitioned, SwapOps: 2})
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
		// admitted backlog (it timed out under -race). 250 singles still
		// drive >100 publishes per shard across the probe loop.
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
	for _, topo := range []Topology{TopologyReplicated, TopologyPartitioned} {
		srv, err := p.Serve(ctx, ds, ServerOptions{Shards: 3, Topology: topo, SwapOps: 2})
		if err != nil {
			t.Fatalf("%v: Serve: %v", topo, err)
		}
		v, err := srv.View(ctx)
		if err != nil {
			t.Fatalf("%v: View: %v", topo, err)
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
				t.Fatalf("%v: InsertAll: %v", topo, err)
			}
		}
		if err := srv.Quiesce(ctx); err != nil {
			t.Fatalf("%v: Quiesce: %v", topo, err)
		}
		if got := v.Batches(); got != batchesBefore {
			t.Fatalf("%v: view cursor moved: %d -> %d", topo, batchesBefore, got)
		}
		for i := range before {
			after := v.Candidates(i)
			if len(after) != len(before[i]) {
				t.Fatalf("%v: view read of %d changed after publication", topo, i)
			}
			for k := range after {
				if after[k] != before[i][k] {
					t.Fatalf("%v: view read of %d changed after publication", topo, i)
				}
			}
		}
		// A fresh view observes the later state.
		v2, err := srv.View(ctx)
		if err != nil {
			t.Fatalf("%v: second View: %v", topo, err)
		}
		if v2.Batches() <= batchesBefore {
			t.Fatalf("%v: second view did not advance (%d <= %d)", topo, v2.Batches(), batchesBefore)
		}
		if got, want := v2.NumProfiles(), srv.Admitted(); got != want {
			t.Fatalf("%v: second view covers %d profiles, want %d", topo, got, want)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
