package metablocking

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/store"
	"blast/internal/weights"
)

// TestSpilledReweigh is the regression test of the stale-weights bug: a
// spilled CSR weighted a second time must prune on the second scheme's
// weights, not on pages of the first still sitting in its cache (or in
// the segment the swap used to leak). One spilled graph is re-weighted
// χ²·h → CBS → χ²·h and after every weighting each pruning's pairs must
// equal the resident CSR's.
func TestSpilledReweigh(t *testing.T) {
	ctx := context.Background()
	c := blocking.RandomCollection(stats.NewRNG(23), model.Dirty, 300, 200)
	resident := graph.BuildCSR(c)
	// The cache holds the whole graph, so without the invalidation every
	// weights page of the first scheme would still be served.
	spilled, err := graph.BuildCSRSpillCtx(ctx, c, graph.SpillOptions{
		Dir: t.TempDir(), MemoryBudget: -1, PageEntries: 64, CacheBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.Spilled() {
		t.Fatal("zero-budget build did not spill")
	}
	defer func() {
		if err := spilled.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	chi2h := weights.Scheme{Kind: weights.ChiSquared, Entropy: true}
	cbs := weights.Scheme{Kind: weights.CBS}
	for round, s := range []weights.Scheme{chi2h, cbs, chi2h} {
		s.ApplyCSR(resident)
		s.ApplyCSR(spilled)
		for _, p := range allPrunings {
			cfg := Config{Scheme: s, Pruning: p, C: 2, D: 2, Workers: 2}
			want, err := PruneCSR(ctx, resident, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PruneCSR(ctx, spilled, cfg)
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, fmt.Sprintf("round %d %v+%s spilled", round, s, p), want, got)
		}
		if err := spilled.Err(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// spilledShapes are the collections the cursor differential runs over:
// two pruning chunks with page boundaries inside them, a hub whose
// run fills a page of its own, whole chunks of edgeless nodes before
// and after the edges, clean-clean, and graphs without an entry.
// allBlocks returns every block of c in the exported form.
func allBlocks(c *blocking.Collection) []blocking.Block {
	out := make([]blocking.Block, c.Len())
	for i := range out {
		out[i] = c.Block(i)
	}
	return out
}

func spilledShapes() map[string]*blocking.Collection {
	rng := stats.NewRNG(808)
	chunks := blocking.RandomCollection(rng, model.Dirty, 2048+300, 1200)

	hub := blocking.RandomCollection(rng, model.Dirty, 600, 300)
	hubBlocks := allBlocks(hub)
	for i := int32(0); i < 600; i++ {
		if i != 7 {
			hubBlocks = append(hubBlocks, blocking.Block{Key: fmt.Sprintf("hub%03d", i), P1: []int32{7, i}, Entropy: 0.5})
		}
	}
	hub = blocking.FromBlocks(hub.Kind, hub.NumProfiles, hub.Split, hubBlocks)

	const pad = 2100 // more than one pruning chunk of edgeless nodes
	inner := blocking.RandomCollection(rng, model.Dirty, 400, 300)
	paddedBlocks := allBlocks(inner)
	for i := range paddedBlocks {
		p1 := append([]int32(nil), paddedBlocks[i].P1...)
		for j := range p1 {
			p1[j] += pad
		}
		paddedBlocks[i].P1 = p1
	}
	padded := blocking.FromBlocks(model.Dirty, inner.NumProfiles+2*pad, 0, paddedBlocks)

	return map[string]*blocking.Collection{
		"chunks": chunks, "hub": hub, "edgeless head and tail": padded,
		"clean-clean": blocking.RandomCollection(rng, model.CleanClean, 300, 200),
		"no edges":    {Kind: model.Dirty, NumProfiles: 5},
		"no profiles": {Kind: model.Dirty},
	}
}

// TestSpilledPruneMatchesResident is the differential of the page
// cursors: every pruning under three weightings retains, over a spilled
// CSR read by 1, 2 and 4 workers at three page sizes, exactly the pairs
// it retains over the resident CSR.
func TestSpilledPruneMatchesResident(t *testing.T) {
	ctx := context.Background()
	schemes := []weights.Scheme{
		{Kind: weights.ChiSquared, Entropy: true}, {Kind: weights.CBS}, {Kind: weights.EJS},
	}
	for name, c := range spilledShapes() {
		resident := graph.BuildCSR(c)
		want := make(map[string][]model.IDPair)
		for _, s := range schemes {
			s.ApplyCSR(resident)
			for _, p := range allPrunings {
				pairs, err := PruneCSR(ctx, resident, Config{Scheme: s, Pruning: p, C: 2, D: 2, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				want[fmt.Sprint(s)+p.String()] = pairs
			}
		}
		for _, pageEntries := range []int{64, 256, 0} {
			spilled, err := graph.BuildCSRSpillCtx(ctx, c, graph.SpillOptions{
				Dir: t.TempDir(), MemoryBudget: -1, PageEntries: pageEntries, CacheBytes: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range schemes {
				s.ApplyCSR(spilled)
				for _, p := range allPrunings {
					for _, workers := range []int{1, 2, 4} {
						got, err := PruneCSR(ctx, spilled, Config{Scheme: s, Pruning: p, C: 2, D: 2, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						samePairs(t, fmt.Sprintf("%s page=%d %v+%s workers=%d", name, pageEntries, s, p, workers),
							want[fmt.Sprint(s)+p.String()], got)
					}
				}
			}
			if st := spilled.CacheStats(); st.Hits+st.Misses != 0 {
				t.Errorf("%s page=%d: sequential passes went through the page cache: %+v", name, pageEntries, st)
			}
			if err := spilled.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// flipSegmentByte flips one payload byte of the first frame of the
// segment file matching pattern under a spill directory.
func flipSegmentByte(t *testing.T, dir, pattern string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", pattern))
	if err != nil || len(matches) != 1 {
		t.Fatalf("%s: %v (%d matches)", pattern, err, len(matches))
	}
	f, err := os.OpenFile(matches[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	off := int64(len(store.Magic) + store.FrameHeaderSize + 24)
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// spilledForFaults builds a small spilled CSR of many pages.
func spilledForFaults(t *testing.T) (g *graph.CSR, c *blocking.Collection, dir string) {
	t.Helper()
	c = blocking.RandomCollection(stats.NewRNG(23), model.Dirty, 300, 200)
	dir = t.TempDir()
	g, err := graph.BuildCSRSpillCtx(context.Background(), c, graph.SpillOptions{Dir: dir, MemoryBudget: -1, PageEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := g.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return g, c, dir
}

// refusesCorrupt asserts that every pruning and the mirror sweep return
// the named segment error over g, and no pairs.
func refusesCorrupt(t *testing.T, label string, g *graph.CSR) {
	t.Helper()
	ctx := context.Background()
	for _, p := range allPrunings {
		pairs, err := PruneCSR(ctx, g, Config{Scheme: weights.Blast(), Pruning: p, C: 2, D: 2, Workers: 2})
		if !errors.Is(err, store.ErrCorruptSegment) || pairs != nil {
			t.Fatalf("%s: PruneCSR %s = (%d pairs, %v), want (nil, ErrCorruptSegment)", label, p, len(pairs), err)
		}
	}
	visited := 0
	err := g.CanonicalCtx(ctx, func(u, v int32, p int64) { visited++ })
	if !errors.Is(err, store.ErrCorruptSegment) || visited != 0 {
		t.Fatalf("%s: CanonicalCtx visited %d edges, err %v, want none and ErrCorruptSegment", label, visited, err)
	}
}

// TestSpilledWeighFailureFailsClosed: a weighting that cannot read one
// of its input pages returns the named error from the ctx-taking
// variant; through plain ApplyCSR, which has no error return, it stays
// on the graph and every later pass refuses it — at the parent commit
// the weights stream was simply gone and the next pruning pass indexed
// a nil run. A failed re-weighting keeps the previous weights.
func TestSpilledWeighFailureFailsClosed(t *testing.T) {
	ctx := context.Background()
	for _, stream := range []string{"common", "arcs", "entropy", "neighbors"} {
		g, _, dir := spilledForFaults(t)
		flipSegmentByte(t, dir, stream+".seg")
		if err := weights.Blast().ApplyCSRCtx(ctx, g, 2); !errors.Is(err, store.ErrCorruptSegment) {
			t.Fatalf("%s: ApplyCSRCtx = %v, want ErrCorruptSegment", stream, err)
		}
		refusesCorrupt(t, stream+" after ApplyCSRCtx", g)

		g, _, dir = spilledForFaults(t)
		flipSegmentByte(t, dir, stream+".seg")
		weights.Blast().ApplyCSR(g)
		if err := g.Err(); !errors.Is(err, store.ErrCorruptSegment) {
			t.Fatalf("%s: Err() after ApplyCSR = %v, want ErrCorruptSegment", stream, err)
		}
		refusesCorrupt(t, stream+" after ApplyCSR", g)
	}

	g, c, dir := spilledForFaults(t)
	cbs := weights.Scheme{Kind: weights.CBS}
	cbs.ApplyCSR(g)
	resident := graph.BuildCSR(c)
	cbs.ApplyCSR(resident)
	flipSegmentByte(t, dir, "arcs.seg")
	if err := weights.Blast().ApplyCSRCtx(ctx, g, 1); !errors.Is(err, store.ErrCorruptSegment) {
		t.Fatalf("re-weighting over a corrupt page = %v, want ErrCorruptSegment", err)
	}
	// The failed weighting stays on the graph (every pass refuses it from
	// here on); the pages of the previous weights still read back whole.
	got, err := readWeights(g)
	if !errors.Is(err, store.ErrCorruptSegment) {
		t.Fatalf("Err() after a failed re-weighting = %v, want ErrCorruptSegment", err)
	}
	if !slices.Equal(got, resident.Weights) {
		t.Fatal("a failed re-weighting changed the previous scheme's weights")
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*", "weights.*.seg")); len(segs) != 1 {
		t.Fatalf("weights segments after a failed re-weighting: %v, want the previous one only", segs)
	}
}

// TestSpilledPruneFaultFailsClosed: a page that goes bad after a healthy
// weighting — adjacency or weights — surfaces from the pruning pass that
// loads it through its cursor, as the named error and without pairs.
func TestSpilledPruneFaultFailsClosed(t *testing.T) {
	ctx := context.Background()
	for _, pattern := range []string{"neighbors.seg", "weights.*.seg"} {
		for _, p := range allPrunings {
			g, _, dir := spilledForFaults(t)
			if err := weights.Blast().ApplyCSRCtx(ctx, g, 2); err != nil {
				t.Fatal(err)
			}
			flipSegmentByte(t, dir, pattern)
			pairs, err := PruneCSR(ctx, g, Config{Scheme: weights.Blast(), Pruning: p, C: 2, D: 2, Workers: 2})
			if !errors.Is(err, store.ErrCorruptSegment) || pairs != nil {
				t.Fatalf("%s/%s: PruneCSR = (%d pairs, %v), want (nil, ErrCorruptSegment)", pattern, p, len(pairs), err)
			}
		}
	}
}

// readWeights reads every weight of g back in entry order through a
// run cursor — over a spilled graph, every weights page once.
func readWeights(g *graph.CSR) ([]float64, error) {
	out := make([]float64, 0, g.NumEntries())
	runs := g.Reader()
	for u := 0; u < g.NumProfiles; u++ {
		_, wts := runs.Run(u)
		out = append(out, wts...)
	}
	return out, g.Err()
}
