package blocking_test

// The array collection against the map-based reference: the parallel
// sort-based build, the fused and standalone purge, the bitmap filter and
// the append tail must reproduce the reference block for block — key,
// entropy bits and members — and the blocking graph built over either is
// bit-identical.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blast/internal/attr"
	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/text"
)

// randomDataset draws n profiles per source over a small skewed
// vocabulary, so blocks of every size — singletons to purge-sized — occur.
func randomDataset(rng *stats.RNG, kind model.Kind, n int) *model.Dataset {
	attrs := []string{"name", "title", "desc", "year", "misc"}
	source := func(name string) *model.Collection {
		e := model.NewCollection(name)
		for i := 0; i < n; i++ {
			p := model.Profile{ID: fmt.Sprintf("%s%d", name, i)}
			for _, a := range attrs {
				if rng.Intn(3) == 0 {
					continue
				}
				var toks []string
				for k := 1 + rng.Intn(4); k > 0; k-- {
					toks = append(toks, fmt.Sprintf("t%d", rng.Intn(1+rng.Intn(60))))
				}
				p.Add(a, strings.Join(toks, " "))
			}
			e.Append(p)
		}
		return e
	}
	ds := &model.Dataset{Name: "random", Kind: kind, E1: source("a"), Truth: model.NewGroundTruth()}
	if kind == model.CleanClean {
		ds.E2 = source("b")
	}
	return ds
}

type keyCase struct {
	name string
	key  blocking.KeyFunc
}

// keyCases are the three key functions of the paper's techniques over a
// dataset: Token Blocking, Standard Blocking over an alignment of the
// dataset's attributes by name length, and the loosely schema-aware keys
// of its LMI partitioning.
func keyCases(ds *model.Dataset, tr text.Transform) []keyCase {
	align := make(map[[2]string]string)
	for s, c := range ds.Sources() {
		for _, p := range c.Profiles {
			for _, pr := range p.Pairs {
				if len(pr.Name)%4 != 0 {
					align[[2]string{fmt.Sprint(s), pr.Name}] = fmt.Sprint(len(pr.Name) % 3)
				}
			}
		}
	}
	part := attr.LMI(attr.ExtractProfiles(ds, tr), ds.Kind, attr.Config{Alpha: 0.9, Glue: true})
	return []keyCase{{"token", blocking.TokenKey}, {"schema", blocking.SchemaKey(align)}, {"lmi", part.KeyFunc()}}
}

type corpus struct {
	name string
	ds   *model.Dataset
	keys []keyCase
	// purges and filters are the ratios crossed on the corpus: all three
	// of each on the random ones, the pipeline's defaults on the others.
	purges, filters []float64
}

// corpora builds the corpora and their key functions once per test
// binary.
var corpora = sync.OnceValue(func() []corpus {
	rng := stats.NewRNG(2026)
	all, purges, filters := func(c corpus) corpus {
		c.purges, c.filters = []float64{0.05, 0.5, 1}, []float64{0.3, 0.8, 1}
		return c
	}, []float64{0.5}, []float64{0.8}
	cs := []corpus{
		all(corpus{name: "random-dirty-1", ds: randomDataset(rng, model.Dirty, 180)}),
		all(corpus{name: "random-dirty-2", ds: randomDataset(rng, model.Dirty, 60)}),
		all(corpus{name: "random-clean-1", ds: randomDataset(rng, model.CleanClean, 120)}),
		all(corpus{name: "random-clean-2", ds: randomDataset(rng, model.CleanClean, 40)}),
		all(corpus{name: "paper", ds: datasets.PaperExample()}),
		{name: "dbp", ds: datasets.DBP(0.02, 1), purges: purges, filters: filters},
		{name: "stream", ds: streamDataset(600), purges: purges, filters: filters},
	}
	for i := range cs {
		cs[i].keys = keyCases(cs[i].ds, text.NewTokenizer())
	}
	return cs
})

// sameAsReference compares the collections block for block.
func sameAsReference(t *testing.T, label string, got *blocking.Collection, want *refCollection) {
	t.Helper()
	if got.Kind != want.Kind || got.NumProfiles != want.NumProfiles || got.Split != want.Split || got.Len() != len(want.Blocks) {
		t.Fatalf("%s: kind %v/%v profiles %d/%d split %d/%d blocks %d/%d", label,
			got.Kind, want.Kind, got.NumProfiles, want.NumProfiles, got.Split, want.Split, got.Len(), len(want.Blocks))
	}
	for i, w := range want.Blocks {
		g := got.Block(i)
		if g.Key != w.Key || math.Float64bits(g.Entropy) != math.Float64bits(w.Entropy) ||
			!reflect.DeepEqual(g.P1, w.P1) || !reflect.DeepEqual(g.P2, w.P2) {
			t.Fatalf("%s: block %d = %q h=%v %v|%v, want %q h=%v %v|%v", label, i,
				g.Key, g.Entropy, g.P1, g.P2, w.Key, w.Entropy, w.P1, w.P2)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// sameCSR compares two graphs entry for entry, floats by their bits.
func sameCSR(t *testing.T, label string, got, want *graph.CSR) {
	t.Helper()
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !reflect.DeepEqual(got.Offsets, want.Offsets) || !reflect.DeepEqual(got.Neighbors, want.Neighbors) ||
		!reflect.DeepEqual(got.Common, want.Common) || !reflect.DeepEqual(bits(got.ARCS), bits(want.ARCS)) ||
		!reflect.DeepEqual(bits(got.EntropySum), bits(want.EntropySum)) || !reflect.DeepEqual(got.BlockCounts, want.BlockCounts) ||
		got.TotalBlocks != want.TotalBlocks || got.TotalComparisons != want.TotalComparisons {
		t.Fatalf("%s: CSR differs from the reference collection's", label)
	}
}

func refAsCollection(c *refCollection) *blocking.Collection {
	return blocking.FromBlocks(c.Kind, c.NumProfiles, c.Split, c.Blocks)
}

// TestCollectionMatchesReference crosses corpora × key functions × purge
// × filter × workers (the ratios on the random corpora and the paper
// example, the defaults on DBP and the stream): the parallel build (raw and with the purge fused),
// the standalone Purge and the bitmap Filter equal the reference, and so
// does the blocking graph of the cleaned collection.
func TestCollectionMatchesReference(t *testing.T) {
	ctx := context.Background()
	tr := text.NewTokenizer()
	for _, cp := range corpora() {
		for _, kc := range cp.keys {
			label := cp.name + "/" + kc.name
			ref := refBuild(cp.ds, tr, kc.key)
			raw, err := blocking.BuildCtx(ctx, cp.ds, tr, kc.key)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, label+"/BuildCtx", raw, ref)
			for _, workers := range []int{1, 2, 4} {
				wl := fmt.Sprintf("%s/workers=%d", label, workers)
				unpurged, err := blocking.BuildPurgedCtx(ctx, cp.ds, tr, kc.key, workers, 1)
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, wl+"/raw", unpurged, ref)
				for _, purge := range cp.purges {
					pl := fmt.Sprintf("%s/purge=%v", wl, purge)
					refPurged := refPurge(ref, purge)
					purged, err := blocking.BuildPurgedCtx(ctx, cp.ds, tr, kc.key, workers, purge)
					if err != nil {
						t.Fatal(err)
					}
					sameAsReference(t, pl+"/fused", purged, refPurged)
					sameAsReference(t, pl+"/Purge", blocking.Purge(raw, purge), refPurged)
					for _, filter := range cp.filters {
						fl := fmt.Sprintf("%s/filter=%v", pl, filter)
						refFiltered := refFilter(refPurged, filter)
						cleaned := blocking.Filter(purged, filter)
						sameAsReference(t, fl, cleaned, refFiltered)
						if purge == 0.5 && filter == 0.8 {
							sameAsReference(t, fl+"/CleanWorkflow", blocking.CleanWorkflow(raw, purge, filter), refFiltered)
							got, err := graph.BuildCSRParallelCtx(ctx, cleaned, workers)
							if err != nil {
								t.Fatal(err)
							}
							want, err := graph.BuildCSRParallelCtx(ctx, refAsCollection(refFiltered), workers)
							if err != nil {
								t.Fatal(err)
							}
							sameCSR(t, fl, got, want)
						}
					}
				}
			}
		}
	}
}

// TestAppendReplayMatchesReference replays one random append sequence —
// keys of live blocks, of blocks cleaning removed, and fresh ones — on a
// Clone of the cleaned collection and on a copy of the reference's: every
// assigned id is the reference's, the grown collection equals the
// reference block for block, the base it shares with the original is
// untouched, and the blocking graph over base + tail is bit-identical to
// the one over the reference's flat blocks.
func TestAppendReplayMatchesReference(t *testing.T) {
	ctx := context.Background()
	tr := text.NewTokenizer()
	for _, cp := range corpora() {
		for _, kc := range cp.keys {
			label := cp.name + "/" + kc.name
			ref := refBuild(cp.ds, tr, kc.key)
			refCleaned := refFilter(refPurge(ref, 0.5), 0.8)
			raw, err := blocking.BuildCtx(ctx, cp.ds, tr, kc.key)
			if err != nil {
				t.Fatal(err)
			}
			cleaned := blocking.CleanWorkflow(raw, 0.5, 0.8)

			var pool []string
			for _, b := range ref.Blocks {
				pool = append(pool, b.Key)
			}
			rng := stats.NewRNG(uint64(len(label)))
			keys := func() []blocking.KeyEntropy {
				var out []blocking.KeyEntropy
				for k := 1 + rng.Intn(8); k > 0; k-- {
					if len(pool) > 0 && rng.Intn(4) > 0 {
						out = append(out, blocking.KeyEntropy{Key: pool[rng.Intn(len(pool))], Entropy: 1})
					} else {
						out = append(out, blocking.KeyEntropy{Key: fmt.Sprintf("fresh%02d", rng.Intn(30)), Entropy: rng.Float64()})
					}
				}
				return out
			}

			got := cleaned.Clone()
			app := blocking.NewAppender(got)
			want := &refCollection{Kind: refCleaned.Kind, NumProfiles: refCleaned.NumProfiles, Split: refCleaned.Split}
			for _, b := range refCleaned.Blocks {
				b.P1, b.P2 = append([]int32(nil), b.P1...), append([]int32(nil), b.P2...)
				if cp.ds.Kind == model.Dirty {
					b.P2 = nil
				}
				want.Blocks = append(want.Blocks, b)
			}
			refApp := newRefAppender(want)
			for step := 0; step < 80; step++ {
				ks := keys()
				if g, w := app.Append(ks), refApp.Append(ks); g != w {
					t.Fatalf("%s step %d: id %d, reference %d", label, step, g, w)
				}
			}
			sameAsReference(t, label+"/appended", got, want)
			sameAsReference(t, label+"/base after appends", cleaned, refCleaned)
			for _, workers := range []int{1, 2, 4} {
				g, err := graph.BuildCSRParallelCtx(ctx, got, workers)
				if err != nil {
					t.Fatal(err)
				}
				w, err := graph.BuildCSRParallelCtx(ctx, refAsCollection(want), workers)
				if err != nil {
					t.Fatal(err)
				}
				sameCSR(t, fmt.Sprintf("%s/appended/workers=%d", label, workers), g, w)
			}
		}
	}
}

// pollCounter is a context whose Err reports cancellation from its
// after+1-th call on: it trips a build at one chosen poll.
type pollCounter struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *pollCounter) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBuildCancellation trips a build at every poll point of every
// worker, in both of its parallel passes: each returns ctx.Err() and no
// collection, and leaves no goroutine behind.
func TestBuildCancellation(t *testing.T) {
	ds := streamDataset(3000)
	tr := text.NewTokenizer()
	for _, workers := range []int{1, 2, 4} {
		count := &pollCounter{Context: context.Background(), after: math.MaxInt64}
		if _, err := blocking.BuildPurgedCtx(count, ds, tr, blocking.TokenKey, workers, 1); err != nil {
			t.Fatal(err)
		}
		polls := count.polls.Load()
		if polls < int64(2*workers) {
			t.Fatalf("workers=%d: %d polls, want at least one per worker and pass", workers, polls)
		}
		before := runtime.NumGoroutine()
		for k := int64(0); k < polls; k++ {
			c, err := blocking.BuildPurgedCtx(&pollCounter{Context: context.Background(), after: k}, ds, tr, blocking.TokenKey, workers, 1)
			if !errors.Is(err, context.Canceled) || c != nil {
				t.Fatalf("workers=%d: tripped at poll %d of %d: collection %v, err %v", workers, k, polls, c != nil, err)
			}
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("workers=%d: %d goroutines after the cancelled builds, %d before", workers, n, before)
		}
	}
}

// TestCollectionFootprint bounds what a cleaned collection keeps live:
// 4 bytes a membership, at most 24 a block plus its key, and nothing else
// — no inverse, no per-block headers.
func TestCollectionFootprint(t *testing.T) {
	ds := datasets.DBP(0.1, 1)
	tr := text.NewTokenizer()
	key := attr.LMI(attr.ExtractProfiles(ds, tr), ds.Kind, attr.Config{Alpha: 0.9, Glue: true}).KeyFunc()
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	raw, err := blocking.BuildCtx(context.Background(), ds, tr, key)
	if err != nil {
		t.Fatal(err)
	}
	c := blocking.CleanWorkflow(raw, 0.5, 0.8)
	raw = nil
	memberships, keyBytes, blocks := 0, 0, c.Len()
	for i := 0; i < blocks; i++ {
		b := c.Block(i)
		memberships += b.Size()
		keyBytes += len(b.Key)
	}
	with := live()
	runtime.KeepAlive(c)
	c = nil
	held := with - live()
	bound := int64(4*memberships + 24*blocks + keyBytes + 1024)
	t.Logf("%d blocks, %d memberships, %d key bytes: %d bytes live (bound %d, %.2f B/membership)",
		blocks, memberships, keyBytes, held, bound, float64(held)/float64(memberships))
	if held > bound {
		t.Errorf("cleaned collection holds %d bytes, bound %d", held, bound)
	}
}

// streamDataset materializes a datagen stream of n profiles as a dirty
// dataset with its duplicate pairs as ground truth.
func streamDataset(n int) *model.Dataset {
	s := datasets.NewStream(n, 1)
	e, g := model.NewCollection("stream"), model.NewGroundTruth()
	for i := 0; i < s.Len(); i++ {
		e.Append(s.Profile(i))
		if d, ok := s.Duplicate(i); ok {
			g.Add(d, i)
		}
	}
	return &model.Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: g}
}
