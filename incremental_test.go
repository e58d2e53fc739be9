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

	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/stats"
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

// TestIncrementalEquivalenceMatrix streams three batches into indexes
// across Induction x Scheme x Pruning, workers cycling, and checks the
// write path's contract after each.
func TestIncrementalEquivalenceMatrix(t *testing.T) {
	space{
		data:      []data{dirtyData(60, 60)},
		induction: []Induction{LMI, NoInduction},
		schemes:   sixSchemes[:5],
		prunings:  allPrunings,
		workers:   workersAxis,
		ops:       []op{insertAll(8), check, insertAll(8), check, insertAll(8), check},
	}.run(t)
}

// TestIncrementalEquivalenceRandom draws seeded op sequences —
// Insert, InsertAll, Compact, probes and checks — over the whole option
// lattice into an Index.
func TestIncrementalEquivalenceRandom(t *testing.T) {
	s := optionLattice
	s.data, s.cases = []data{dirtyData(20, 80)}, 18
	s.run(t)
}

// TestIncrementalCleanClean streams the held-back tail of a registry
// clean-clean dataset into E2 of an index (the fixed reference
// collection workload), one Insert at a time.
func TestIncrementalCleanClean(t *testing.T) {
	space{
		data:     []data{registryData("ar1", 0.04, 11, 12)},
		prunings: []metablocking.Pruning{metablocking.BlastWNP, metablocking.CEP},
		ops:      singles(12),
	}.run(t)
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
	matchesCold(t, "post-compaction", p, ix)
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

// TestIndexCandidatesBoundary is the boundary-id probe: before and
// after inserts, out-of-range ids serve empty results from Candidates,
// AppendCandidates and Threshold instead of panicking.
func TestIndexCandidatesBoundary(t *testing.T) {
	space{data: []data{dirtyData(30, 30)}, ops: []op{probe, {}, probe, check}}.run(t)
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
	matchesCold(t, "post-cancellation", p, ix)

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
	matchesCold(t, "concurrent", p, ix)
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
	matchesCold(t, "loner", p, ix)

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
	matchesCold(t, "twins", p, ix)
}
