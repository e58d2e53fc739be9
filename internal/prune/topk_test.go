package prune

// Tests of CNP's per-node selection cut: the (cut, tie) reducer against
// the stable sort it replaced on single runs (ties at the cut, budget
// boundaries, hub runs longer than the poll stride), the whole scheme
// against the sort-based edge-list oracle on tie-heavy graphs, and the
// access shape over a spilled CSR — every page loaded O(1) times.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"blast/internal/blocking"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// stableTopK is the kernel the selection cut replaced: the run's entry
// positions stably sorted by descending weight, the first k marked.
func stableTopK(ws []float64, k int) []bool {
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ws[order[a]] > ws[order[b]] })
	if k > len(order) {
		k = len(order)
	}
	mark := make([]bool, len(ws))
	for _, i := range order[:k] {
		mark[i] = true
	}
	return mark
}

// checkTopKCut reduces one run and compares the marks its cut implies
// with the stable-sort reference, entry by entry.
func checkTopKCut(t *testing.T, label string, w *pruneWorker, ws []float64, k int) {
	t.Helper()
	// Ascending, non-contiguous neighbor ids: the tie is an id, not a
	// position.
	nbr := make([]int32, len(ws))
	for i := range nbr {
		nbr[i] = int32(3*i + 1)
	}
	cut, tie, err := w.topKCut(nbr, ws, k)
	if err != nil {
		t.Fatalf("%s k=%d: %v", label, k, err)
	}
	want := stableTopK(ws, k)
	for i := range ws {
		if got := inTopK(ws[i], nbr[i], cut, tie); got != want[i] {
			t.Fatalf("%s k=%d: entry %d (w=%v) marked=%v, stable sort says %v (cut=%v tie=%d)",
				label, k, i, ws[i], got, want[i], cut, tie)
		}
	}
}

func TestTopKCutMatchesStableSort(t *testing.T) {
	w := &pruneWorker{ctx: context.Background(), budget: streamCancelCheckEdges}
	rng := stats.NewRNG(1618)
	cbs := make([]float64, 200) // CBS-like: small integers, long ties
	for i := range cbs {
		cbs[i] = float64(1 + rng.Intn(4))
	}
	hub := make([]float64, 2*streamCancelCheckEdges+77) // longer than the poll stride
	for i := range hub {
		hub[i] = float64(rng.Intn(50)) + rng.Float64()*float64(i%2)
	}
	distinct := make([]float64, 97)
	for i := range distinct {
		distinct[i] = rng.Float64()
	}
	ascending := make([]float64, 64) // every entry displaces the heap root
	for i := range ascending {
		ascending[i] = float64(i)
	}
	runs := map[string][]float64{
		"cbs-ties":    cbs,
		"all-equal":   {2, 2, 2, 2, 2, 2, 2},
		"single":      {0.5},
		"zero-at-cut": {3, 0, 0, 1, 0, 0, 2, 0},
		"all-zero":    {0, 0, 0, 0, 0},
		"signed-zero": {0, math.Copysign(0, -1), 1, math.Copysign(0, -1), 0},
		"negative":    {-1, 2, -1, 0, 2, -3},
		"distinct":    distinct,
		"ascending":   ascending,
		"hub":         hub,
	}
	for name, ws := range runs {
		d := len(ws)
		for _, k := range []int{1, 2, 3, d / 2, d - 1, d, d + 1, 10 * d} {
			if k >= 1 {
				checkTopKCut(t, name, w, ws, k)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		ws := make([]float64, 1+rng.Intn(60))
		pool := 1 + rng.Intn(6)
		for i := range ws {
			ws[i] = float64(rng.Intn(pool)) / 2
		}
		checkTopKCut(t, fmt.Sprintf("random-%d", trial), w, ws, 1+rng.Intn(len(ws)+2))
	}
}

// TestTopKCutPollsInsideRun: the reducer polls the cancellation budget
// inside a single hub run and surfaces cancellation from there.
func TestTopKCutPollsInsideRun(t *testing.T) {
	ws := make([]float64, 4*streamCancelCheckEdges)
	nbr := make([]int32, len(ws))
	for i := range ws {
		ws[i], nbr[i] = float64(i%13), int32(i)
	}
	ctx := &pollCountCtx{Context: context.Background()}
	w := &pruneWorker{ctx: ctx, budget: streamCancelCheckEdges}
	if _, _, err := w.topKCut(nbr, ws, 5); err != nil {
		t.Fatal(err)
	}
	if got := ctx.polls.Load(); got < 4 {
		t.Errorf("polled ctx %d times inside a %d-entry run, want >= 4", got, len(ws))
	}
	ctx = &pollCountCtx{Context: context.Background(), failAfter: 1}
	w = &pruneWorker{ctx: ctx, budget: streamCancelCheckEdges}
	if _, _, err := w.topKCut(nbr, ws, 5); err != context.Canceled {
		t.Errorf("err = %v after forced cancellation inside the run, want context.Canceled", err)
	}
}

// TestCNPTieBoundaries is CNP's tie-at-the-cut suite: on graphs whose
// weights tie heavily (and sit at zero) exactly where the per-node
// budget cuts, the stream must stay byte-identical to the sort-based
// edge-list oracle for every budget, mode and worker count.
func TestCNPTieBoundaries(t *testing.T) {
	ctx := context.Background()
	must := muster(t)
	rng := stats.NewRNG(577)
	pools := [][]float64{
		{1, 1, 1, 2, 2, 3},        // CBS-like
		{1},                       // all equal
		{0, 0, 0, 1, 2},           // zeros at the cut: marked, never emitted
		{0},                       // nothing to emit at all
		{-1, 0, 0.5, 0.5, 1e-310}, // negatives and denormals
	}
	for pi, pool := range pools {
		n := 40 + rng.Intn(30)
		var edges []edgelist.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u == 0 || rng.Intn(3) == 0 { // node 0 is a hub: degree n-1
					edges = append(edges, edgelist.Edge{U: int32(u), V: int32(v), Weight: pool[rng.Intn(len(pool))]})
				}
			}
		}
		csr, g := csrFromEdges(n, edges)
		weightOf := make(map[model.IDPair]float64, len(edges))
		for _, e := range edges {
			weightOf[e.Pair()] = e.Weight
		}
		for _, k := range []int{1, 2, 5, n - 2, n - 1, n} {
			for _, mode := range []Mode{Redefined, Reciprocal} {
				want := g.Pairs(refCNP(g, k, mode))
				for _, p := range want {
					if weightOf[p] <= 0 {
						t.Fatalf("pool %d k=%d %v: retained %v with weight %v", pi, k, mode, p, weightOf[p])
					}
				}
				for _, workers := range []int{1, 2, 4} {
					got := must(CNPStream(ctx, csr, k, mode, workers))
					comparePairs(t, fmt.Sprintf("pool %d k=%d %v workers=%d", pi, k, mode, workers), want, got)
				}
			}
		}
	}
}

// TestCNPSpilledSequentialAccess pins the access shape of the pruning
// passes over a spilled CSR, counted in segment frames loaded by any
// path: every pass reads every run once, in ascending order per chunk,
// through its workers' cursors, so it loads each page of the two
// streams it reads once — plus at most once more per chunk boundary
// that falls inside the page, when two workers meet there — and never
// consults the page cache. The mirror probes of the old CNP kernel
// decoded a page per edge. The yardstick is one cursor's ascending
// sweep, which loads exactly pages x streams frames.
func TestCNPSpilledSequentialAccess(t *testing.T) {
	c := blocking.RandomCollection(stats.NewRNG(4242), model.Dirty, 3*ChunkNodes-100, 24000)
	resident := graph.BuildCSR(c)
	spilled, err := graph.BuildCSRSpillCtx(context.Background(), c, graph.SpillOptions{
		Dir: t.TempDir(), MemoryBudget: -1, PageEntries: 256, CacheBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := spilled.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	s := weights.Scheme{Kind: weights.CBS} // integer weights: ties at every cut
	s.ApplyCSR(resident)
	s.ApplyCSR(spilled)

	const streams = 2 // neighbors and weights
	before := spilled.PageLoads()
	runs := spilled.Reader()
	for u := 0; u < spilled.NumProfiles; u++ {
		runs.Run(u)
	}
	sweep := spilled.PageLoads() - before
	if sweep < 100*streams {
		t.Fatalf("one sweep loaded %d frames: too few pages to pin anything", sweep)
	}
	perPass := sweep + streams*int64(numChunks(spilled.NumProfiles))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tc := range []struct {
		name   string
		passes int64 // upper bound
		prune  func(g *graph.CSR, workers int) ([]model.IDPair, error)
	}{
		{"cnp redefined", 2, func(g *graph.CSR, w int) ([]model.IDPair, error) { return CNPStream(ctx, g, 0, Redefined, w) }},
		{"cnp reciprocal", 2, func(g *graph.CSR, w int) ([]model.IDPair, error) { return CNPStream(ctx, g, 0, Reciprocal, w) }},
		{"wnp", 2, func(g *graph.CSR, w int) ([]model.IDPair, error) { return WNPStream(ctx, g, Redefined, w) }},
		// At most four counting passes, a tie count and the emission.
		{"cep", 6, func(g *graph.CSR, w int) ([]model.IDPair, error) { return CEPStream(ctx, g, 0, w) }},
	} {
		want, err := tc.prune(resident, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			before := spilled.PageLoads()
			got, err := tc.prune(spilled, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			comparePairs(t, fmt.Sprintf("spilled %s workers=%d", tc.name, workers), want, got)
			if loads := spilled.PageLoads() - before; loads < sweep || loads > tc.passes*perPass {
				t.Errorf("%s workers=%d: %d frames loaded, want between one sweep (%d) and %d passes x (%d + %d chunks x %d streams)",
					tc.name, workers, loads, sweep, tc.passes, sweep, numChunks(spilled.NumProfiles), streams)
			}
		}
	}
	if st := spilled.CacheStats(); st.Hits+st.Misses != 0 {
		t.Errorf("sequential passes went through the page cache: %+v", st)
	}
	if err := spilled.Err(); err != nil {
		t.Fatal(err)
	}
}
