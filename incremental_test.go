package blast

// Differential tests of inserts into an Index: after any sequence of
// Insert/InsertAll/Compact calls and reads, the Index must be
// byte-identical — Pairs(), Candidates(i), Threshold(i) — to a cold
// IndexBlocks over its own live (appended) collection, across the
// Induction x Scheme x Pruning configuration axes and against the batch
// run. Plus the boundary, cancellation and concurrency contracts of
// appends and the re-freeze the next read runs.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blast/internal/datasets"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// synthProfile draws a random profile from a small shared vocabulary, so
// streamed profiles co-occur heavily with the base collection while
// still introducing fresh tokens now and then.
func synthProfile(rng *stats.RNG, id string) model.Profile {
	words := []string{
		"alpha", "beta", "gamma", "delta", "abram", "ellen", "main", "oak",
		"1985", "1999", "ny", "sf", "smith", "jones", "red", "blue",
		"acme", "globex", "north", "south", "pine", "elm", "42", "77",
	}
	attrs := []string{"name", "addr", "year", "note"}
	p := model.Profile{ID: id}
	na := 1 + rng.Intn(len(attrs))
	for a := 0; a < na; a++ {
		nt := 1 + rng.Intn(4)
		var toks []string
		for j := 0; j < nt; j++ {
			if rng.Intn(12) == 0 {
				// Occasionally a token outside the vocabulary: exercises
				// pending keys and new-block materialization.
				toks = append(toks, fmt.Sprintf("tok%d", rng.Intn(1000)))
			} else {
				toks = append(toks, words[rng.Intn(len(words))])
			}
		}
		p.Add(attrs[rng.Intn(len(attrs))], strings.Join(toks, " "))
	}
	return p
}

// synthDirty builds a dirty dataset of n synthetic profiles.
func synthDirty(rng *stats.RNG, n int) *model.Dataset {
	e := model.NewCollection("stream-base")
	for i := 0; i < n; i++ {
		e.Append(synthProfile(rng, fmt.Sprintf("b%d", i)))
	}
	return &model.Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
}

// checkIndexEquivalence asserts the incremental correctness contract:
// the mutable index matches a cold IndexBlocks over a clone of its live
// collection on every observable — pairs, per-profile candidates
// (ids and bitwise weights) and per-profile thresholds.
func checkIndexEquivalence(t *testing.T, label string, p *Pipeline, ix *Index) {
	t.Helper()
	cold, err := p.IndexBlocks(context.Background(), &Blocks{Collection: ix.Blocks().Clone(), Schema: ix.Schema()})
	if err != nil {
		t.Fatalf("%s: cold IndexBlocks: %v", label, err)
	}
	if cold.NumProfiles() != ix.NumProfiles() {
		t.Fatalf("%s: NumProfiles = %d, want %d", label, ix.NumProfiles(), cold.NumProfiles())
	}
	if cold.NumEdges() != ix.NumEdges() {
		t.Fatalf("%s: NumEdges = %d, want %d", label, ix.NumEdges(), cold.NumEdges())
	}
	assertSamePairs(t, label+" pairs", cold.Pairs(), ix.Pairs())
	if cold.NumRetained() != ix.NumRetained() {
		t.Fatalf("%s: NumRetained = %d, want %d", label, ix.NumRetained(), cold.NumRetained())
	}
	var want, got []Candidate
	for i := 0; i < cold.NumProfiles(); i++ {
		if cw, iw := cold.Threshold(i), ix.Threshold(i); cw != iw {
			t.Fatalf("%s: Threshold(%d) = %v, want %v", label, i, iw, cw)
		}
		want = cold.AppendCandidates(want[:0], i)
		got = ix.AppendCandidates(got[:0], i)
		if len(want) != len(got) {
			t.Fatalf("%s: Candidates(%d): %d, want %d", label, i, len(got), len(want))
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("%s: Candidates(%d)[%d] = %+v, want %+v", label, i, k, got[k], want[k])
			}
		}
	}
}

// TestIncrementalEquivalenceMatrix streams profile batches into indexes
// across Induction x Scheme x Pruning and checks the cold-rebuild
// contract at every batch boundary, then cross-checks the final pair set
// against the batch run over the live collection.
func TestIncrementalEquivalenceMatrix(t *testing.T) {
	ctx := context.Background()
	schemes := []weights.Scheme{
		{Kind: weights.ChiSquared, Entropy: true},
		{Kind: weights.CBS},
		{Kind: weights.JS},
		{Kind: weights.ARCS, Entropy: true},
		{Kind: weights.ECBS},
	}
	prunings := []metablocking.Pruning{
		metablocking.WEP, metablocking.CEP, metablocking.WNP1,
		metablocking.WNP2, metablocking.CNP1, metablocking.CNP2,
		metablocking.BlastWNP,
	}
	// Workers cycles through the axis so every pruning runs both serial
	// and parallel at least once; the contract demands byte-identical
	// decisions at every value (the cold reference inside
	// checkIndexEquivalence prunes under the same Workers).
	workersAxis := []int{0, 1, 2, 4}
	cfgN := 0
	for _, ind := range []Induction{LMI, NoInduction} {
		for _, scheme := range schemes {
			for _, pruning := range prunings {
				workers := workersAxis[cfgN%len(workersAxis)]
				cfgN++
				label := fmt.Sprintf("%v/%v/%v/workers=%d", ind, scheme, pruning, workers)
				rng := stats.NewRNG(uint64(len(label))*977 + 13)
				ds := synthDirty(rng, 60)
				opt := DefaultOptions()
				opt.Induction = ind
				opt.Scheme = scheme
				opt.Pruning = pruning
				opt.Workers = workers
				p, err := NewPipeline(opt)
				if err != nil {
					t.Fatal(err)
				}
				ix, err := p.BuildIndex(ctx, ds)
				if err != nil {
					t.Fatalf("%s: BuildIndex: %v", label, err)
				}
				for batch := 0; batch < 3; batch++ {
					profs := make([]model.Profile, 8)
					for i := range profs {
						profs[i] = synthProfile(rng, fmt.Sprintf("s%d-%d", batch, i))
					}
					if _, err := ix.InsertAll(ctx, profs); err != nil {
						t.Fatalf("%s: InsertAll: %v", label, err)
					}
					checkIndexEquivalence(t, fmt.Sprintf("%s batch %d", label, batch), p, ix)
				}
				// The live collection must also reproduce the index's
				// pairs through the batch run.
				mb, err := metablocking.RunCtx(ctx, ix.Blocks(), metaConfigFromOptions(opt))
				if err != nil {
					t.Fatalf("%s: RunCtx: %v", label, err)
				}
				assertSamePairs(t, label+" final", mb.Pairs, ix.Pairs())
			}
		}
	}
}

// TestIncrementalEquivalenceRandom is the randomized differential
// harness: seeded random profile streams with interleaved Insert,
// InsertAll and explicit Compact calls over randomized configuration
// axes, asserting the cold-rebuild contract at random checkpoints and at
// the end.
func TestIncrementalEquivalenceRandom(t *testing.T) {
	ctx := context.Background()
	schemes := []weights.Kind{
		weights.CBS, weights.ECBS, weights.ARCS, weights.JS, weights.EJS, weights.ChiSquared,
	}
	prunings := []metablocking.Pruning{
		metablocking.WEP, metablocking.CEP, metablocking.WNP1, metablocking.WNP2,
		metablocking.CNP1, metablocking.CNP2, metablocking.BlastWNP,
	}
	for seed := uint64(1); seed <= 18; seed++ {
		rng := stats.NewRNG(seed * 2654435761)
		opt := DefaultOptions()
		opt.Induction = []Induction{LMI, AC, NoInduction}[rng.Intn(3)]
		opt.Scheme = weights.Scheme{Kind: schemes[rng.Intn(len(schemes))], Entropy: rng.Intn(2) == 0}
		opt.Pruning = prunings[rng.Intn(len(prunings))]
		opt.C = []float64{1, 2, 4}[rng.Intn(3)]
		opt.Workers = []int{0, 1, 2, 4}[rng.Intn(4)]
		label := fmt.Sprintf("seed %d (%v/%v/%v)", seed, opt.Induction, opt.Scheme, opt.Pruning)
		p, err := NewPipeline(opt)
		if err != nil {
			t.Fatal(err)
		}
		ds := synthDirty(rng, 20+rng.Intn(60))
		ix, err := p.BuildIndex(ctx, ds)
		if err != nil {
			t.Fatalf("%s: BuildIndex: %v", label, err)
		}
		streamed := 0
		total := 10 + rng.Intn(25)
		for streamed < total {
			switch rng.Intn(4) {
			case 0: // single insert
				prof := synthProfile(rng, fmt.Sprintf("s%d", streamed))
				if _, err := ix.Insert(ctx, &prof); err != nil {
					t.Fatalf("%s: Insert: %v", label, err)
				}
				streamed++
			case 1: // explicit compaction
				if err := ix.Compact(ctx); err != nil {
					t.Fatalf("%s: Compact: %v", label, err)
				}
			default: // batch insert
				n := 1 + rng.Intn(6)
				profs := make([]model.Profile, n)
				for i := range profs {
					profs[i] = synthProfile(rng, fmt.Sprintf("s%d", streamed+i))
				}
				if _, err := ix.InsertAll(ctx, profs); err != nil {
					t.Fatalf("%s: InsertAll: %v", label, err)
				}
				streamed += n
			}
			if rng.Intn(3) == 0 {
				checkIndexEquivalence(t, fmt.Sprintf("%s @%d", label, streamed), p, ix)
			}
		}
		checkIndexEquivalence(t, label+" final", p, ix)
		if st := ix.Stats(); st.Inserts != streamed {
			t.Errorf("%s: Stats.Inserts = %d, want %d", label, st.Inserts, streamed)
		}
	}
}

// TestIncrementalCleanClean streams profiles into E2 of a clean-clean
// index (the fixed-reference-collection workload) and checks the
// cold-rebuild contract.
func TestIncrementalCleanClean(t *testing.T) {
	ctx := context.Background()
	for _, pruning := range []metablocking.Pruning{metablocking.BlastWNP, metablocking.CEP} {
		full := datasets.AR1(0.04, 11)
		hold := 12
		base := &model.Dataset{
			Name: full.Name, Kind: model.CleanClean,
			E1:    full.E1,
			E2:    &model.Collection{Name: full.E2.Name, Profiles: full.E2.Profiles[:full.E2.Len()-hold]},
			Truth: model.NewGroundTruth(),
		}
		opt := DefaultOptions()
		opt.Pruning = pruning
		p, err := NewPipeline(opt)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := p.BuildIndex(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		wantSplit := base.Split()
		stream := full.E2.Profiles[full.E2.Len()-hold:]
		for i := range stream {
			id, err := ix.Insert(ctx, &stream[i])
			if err != nil {
				t.Fatalf("%v: Insert %d: %v", pruning, i, err)
			}
			if id < wantSplit {
				t.Fatalf("%v: inserted profile landed in E1 id space: %d < %d", pruning, id, wantSplit)
			}
		}
		if err := ix.Blocks().Validate(); err != nil {
			t.Fatalf("%v: live collection invalid: %v", pruning, err)
		}
		checkIndexEquivalence(t, fmt.Sprintf("clean-clean %v", pruning), p, ix)
	}
}

// TestIncrementalCompactionPreservesState: Compact is the explicit fold
// of pending inserts. A fold cancelled part-way leaves the index pending
// and unchanged; a completed one counts the batches it folded, reads
// after it equal a cold rebuild without folding again, and a second
// Compact is a no-op.
func TestIncrementalCompactionPreservesState(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(7)
	ds := synthDirty(rng, 50)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		profs := make([]model.Profile, 5)
		for i := range profs {
			profs[i] = synthProfile(rng, fmt.Sprintf("c%d-%d", b, i))
		}
		if _, err := ix.InsertAll(ctx, profs); err != nil {
			t.Fatal(err)
		}
	}
	// The first poll passes Compact's entry check; the build trips on the
	// next one.
	if err := ix.Compact(&cancelAfter{Context: ctx, left: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact under a context cancelled mid-fold: err = %v", err)
	}
	if st := ix.Stats(); st.Compactions != 0 || st.RebuiltBatches != 0 || st.Inserts != 10 {
		t.Fatalf("cancelled Compact folded: %+v", st)
	}
	if err := ix.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.Compactions != 1 || st.RebuiltBatches != 2 {
		t.Fatalf("after Compact: %+v, want one re-freeze folding two batches", st)
	}
	checkIndexEquivalence(t, "post-compaction", p, ix)
	if err := ix.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.Compactions != 1 || st.LocalizedBatches != 0 {
		t.Errorf("reads or a second Compact re-froze: %+v", st)
	}
}

// cancelAfter is a context whose Err reports cancellation once it has
// been polled left times.
type cancelAfter struct {
	context.Context
	left int64
	n    atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(1) > c.left {
		return context.Canceled
	}
	return nil
}

// TestIndexCandidatesBoundary is the boundary-id table test: before and
// after inserts, out-of-range ids serve empty results from Candidates,
// AppendCandidates and Threshold instead of panicking.
func TestIndexCandidatesBoundary(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(5)
	ds := synthDirty(rng, 30)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		n := ix.NumProfiles()
		cases := []struct {
			id     int
			inside bool
		}{
			{-1, false}, {0, true}, {n - 1, true}, {n, false}, {n + 1, false}, {1 << 30, false},
		}
		for _, tc := range cases {
			got := ix.Candidates(tc.id)
			if got == nil {
				t.Errorf("%s: Candidates(%d) = nil, want non-nil slice", stage, tc.id)
			}
			if !tc.inside && len(got) != 0 {
				t.Errorf("%s: Candidates(%d) served %d candidates out of range", stage, tc.id, len(got))
			}
			buf := ix.AppendCandidates(make([]Candidate, 2, 8), tc.id)
			if len(buf) < 2 {
				t.Errorf("%s: AppendCandidates(%d) truncated its input buffer", stage, tc.id)
			}
			if !tc.inside && len(buf) != 2 {
				t.Errorf("%s: AppendCandidates(%d) appended out of range", stage, tc.id)
			}
			if !tc.inside && ix.Threshold(tc.id) != 0 {
				t.Errorf("%s: Threshold(%d) != 0 out of range", stage, tc.id)
			}
		}
	}
	check("cold")
	prof := synthProfile(rng, "bnd")
	id, err := ix.Insert(ctx, &prof)
	if err != nil {
		t.Fatal(err)
	}
	if id != ix.NumProfiles()-1 {
		t.Fatalf("Insert id = %d, want %d", id, ix.NumProfiles()-1)
	}
	check("mutable")
}

// TestInsertCancellation: a pre-cancelled context mutates nothing; a
// context cancelled while a batch is in flight admits all of it or none
// of it, leaving a consistent index; and cancelled inserts leak no
// goroutines (run with -race this also exercises the locking).
func TestInsertCancellation(t *testing.T) {
	rng := stats.NewRNG(21)
	ds := synthDirty(rng, 40)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	before := ix.NumProfiles()
	prof := synthProfile(rng, "x")
	if _, err := ix.Insert(cancelled, &prof); err != context.Canceled {
		t.Errorf("pre-cancelled Insert: err = %v, want context.Canceled", err)
	}
	if ids, err := ix.InsertAll(cancelled, []model.Profile{prof}); err != context.Canceled || len(ids) != 0 {
		t.Errorf("pre-cancelled InsertAll: ids = %v, err = %v", ids, err)
	}
	if err := ix.Compact(cancelled); err != context.Canceled {
		t.Errorf("pre-cancelled Compact: err = %v, want context.Canceled", err)
	}
	if ix.NumProfiles() != before {
		t.Fatalf("cancelled insert mutated the index: %d -> %d profiles", before, ix.NumProfiles())
	}

	// Race a cancellation against the batch: whatever lands must leave the
	// index equivalent to a cold rebuild over its own collection.
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, time.Millisecond} {
		ctx, cancelMid := context.WithCancel(context.Background())
		profs := make([]model.Profile, 400)
		for i := range profs {
			profs[i] = synthProfile(rng, fmt.Sprintf("mid%d", i))
		}
		done := make(chan struct {
			n   int
			err error
		}, 1)
		go func() {
			ids, err := ix.InsertAll(ctx, profs)
			done <- struct {
				n   int
				err error
			}{len(ids), err}
		}()
		time.Sleep(delay)
		cancelMid()
		res := <-done
		if res.err != nil && res.err != context.Canceled {
			t.Fatalf("delay %v: err = %v", delay, res.err)
		}
		if (res.err == nil) != (res.n == len(profs)) {
			t.Errorf("delay %v: batch of %d admitted %d with err %v", delay, len(profs), res.n, res.err)
		}
	}
	checkIndexEquivalence(t, "post-cancellation", p, ix)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked after cancelled inserts: %d > %d", n, base)
	}
}

// TestInsertConcurrentReads serves candidate queries from other
// goroutines while inserting: every batch leaves the rows stale, and
// the readers race one another to fold it — the snapshot contract and
// the read path's lock upgrade under -race.
func TestInsertConcurrentReads(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(31)
	ds := synthDirty(rng, 60)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	doneReading := make(chan struct{})
	for r := 0; r < 4; r++ {
		go func(r int) {
			defer func() { doneReading <- struct{}{} }()
			var buf []Candidate
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := ix.NumProfiles()
				buf = ix.AppendCandidates(buf[:0], (i*7+r)%n)
				ix.Threshold(i % (n + 2))
				if i%50 == 0 {
					ix.Pairs()
					ix.Stats()
				}
			}
		}(r)
	}
	for b := 0; b < 10; b++ {
		profs := make([]model.Profile, 5)
		for i := range profs {
			profs[i] = synthProfile(rng, fmt.Sprintf("r%d-%d", b, i))
		}
		if _, err := ix.InsertAll(ctx, profs); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for r := 0; r < 4; r++ {
		<-doneReading
	}
	checkIndexEquivalence(t, "concurrent", p, ix)
}

// TestInsertNoCooccurrence: a profile sharing no tokens with anything
// stays edgeless (pending keys only); a second copy of it materializes
// fresh blocks and the pair appears — both states matching cold rebuilds.
func TestInsertNoCooccurrence(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(77)
	ds := synthDirty(rng, 30)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	loner := model.Profile{ID: "loner"}
	loner.Add("name", "zzyzx qwxyz")
	id1, err := ix.Insert(ctx, &loner)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Candidates(id1); len(got) != 0 {
		t.Fatalf("edgeless insert has %d candidates", len(got))
	}
	if st := ix.Stats(); st.PendingKeys == 0 {
		t.Error("unseen tokens should be pending keys")
	}
	checkIndexEquivalence(t, "loner", p, ix)

	twin := model.Profile{ID: "twin"}
	twin.Add("name", "zzyzx qwxyz")
	id2, err := ix.Insert(ctx, &twin)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range ix.Candidates(id2) {
		if int(c.ID) == id1 {
			found = true
		}
	}
	if !found {
		t.Error("materialized pending key did not connect the twins")
	}
	checkIndexEquivalence(t, "twins", p, ix)
}
