package prune

// Tests of the parallel, scratch-free pruning passes: the worker-count
// determinism contract (byte-identical output for every Workers value),
// the histogram-cut selection against the sort it replaced, the CEP
// tie-at-the-cut boundaries, and the edge-granular cancellation
// contract (polls proportional to edges, not nodes, even inside one
// adjacency run).

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"blast/internal/blocking"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// csrFromEdges builds a CSR over n profiles from an explicit canonical
// edge list with controlled weights (both entries of every edge carry
// the weight), plus an equivalent edge-list graph — the two inputs the
// equivalence assertions need.
func csrFromEdges(n int, edges []edgelist.Edge) (*graph.CSR, *edgelist.Graph) {
	adj := make([][]edgelist.Edge, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], edgelist.Edge{U: e.V, V: e.U, Weight: e.Weight})
	}
	csr := &graph.CSR{
		NumProfiles: n,
		Offsets:     make([]int64, n+1),
		BlockCounts: make([]int32, n),
	}
	for u := 0; u < n; u++ {
		sort.Slice(adj[u], func(i, j int) bool { return adj[u][i].V < adj[u][j].V })
		for _, e := range adj[u] {
			csr.Neighbors = append(csr.Neighbors, e.V)
			csr.Weights = append(csr.Weights, e.Weight)
		}
		csr.Offsets[u+1] = int64(len(csr.Neighbors))
	}
	g := &edgelist.Graph{
		NumProfiles: n,
		Edges:       append([]edgelist.Edge(nil), edges...),
		BlockCounts: make([]int32, n),
		Degrees:     make([]int32, n),
	}
	for _, e := range edges {
		g.Degrees[e.U]++
		g.Degrees[e.V]++
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		return g.Edges[i].U < g.Edges[j].U ||
			(g.Edges[i].U == g.Edges[j].U && g.Edges[i].V < g.Edges[j].V)
	})
	return csr, g
}

// pruneWorkersAxis is the Workers matrix of the determinism contract:
// automatic (0 = GOMAXPROCS), serial, and several explicit counts
// including ones exceeding the chunk count of small graphs.
var pruneWorkersAxis = []int{0, 1, 2, 3, 4, 7}

// runAllSchemes executes every streaming scheme at one worker count.
func runAllSchemes(t *testing.T, ctx context.Context, csr *graph.CSR, workers int) map[string][]model.IDPair {
	t.Helper()
	must := muster(t)
	out := map[string][]model.IDPair{
		"wep":     must(WEPStream(ctx, csr, workers)),
		"cep":     must(CEPStream(ctx, csr, 0, workers)),
		"cep5":    must(CEPStream(ctx, csr, 5, workers)),
		"wnp1":    must(WNPStream(ctx, csr, Redefined, workers)),
		"wnp2":    must(WNPStream(ctx, csr, Reciprocal, workers)),
		"cnp1":    must(CNPStream(ctx, csr, 0, Redefined, workers)),
		"cnp2":    must(CNPStream(ctx, csr, 0, Reciprocal, workers)),
		"blast":   must(BlastWNPStream(ctx, csr, 2, 2, workers)),
		"blast41": must(BlastWNPStream(ctx, csr, 4, 1, workers)),
	}
	return out
}

// TestPruneParallelMatchesSerial is the determinism matrix of the
// tentpole: for every scheme and worker count, the parallel pruning
// output must be byte-identical to the serial streaming scheme, and the
// exported per-node thresholds must match entry for entry.
func TestPruneParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed * 104729)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 40+rng.Intn(60), 30+rng.Intn(40))
			for _, s := range []weights.Scheme{
				{Kind: weights.CBS},
				{Kind: weights.ChiSquared, Entropy: true},
			} {
				csr := graph.BuildCSR(c)
				s.ApplyCSR(csr)
				serial := runAllSchemes(t, ctx, csr, 1)
				serialMean, _ := MeanThresholds(ctx, csr, 1)
				serialBlast, _ := BlastThresholds(ctx, csr, 2, 1)
				for _, workers := range pruneWorkersAxis[1:] {
					got := runAllSchemes(t, ctx, csr, workers)
					for name, want := range serial {
						label := fmt.Sprintf("seed=%d kind=%v %v %s workers=%d", seed, kind, s, name, workers)
						comparePairs(t, label, want, got[name])
					}
					gotMean, _ := MeanThresholds(ctx, csr, workers)
					gotBlast, _ := BlastThresholds(ctx, csr, 2, workers)
					for i := range serialMean {
						if serialMean[i] != gotMean[i] || serialBlast[i] != gotBlast[i] {
							t.Fatalf("workers=%d: threshold %d drifted: mean %v vs %v, blast %v vs %v",
								workers, i, gotMean[i], serialMean[i], gotBlast[i], serialBlast[i])
						}
					}
				}
				// Workers=0 (GOMAXPROCS) is part of the contract too.
				got := runAllSchemes(t, ctx, csr, 0)
				for name, want := range serial {
					comparePairs(t, fmt.Sprintf("seed=%d %s workers=0", seed, name), want, got[name])
				}
			}
		}
	}
}

// TestSelectCutMatchesSort pins the histogram-cut selection against the
// flat sort it replaced, on weight distributions with heavy ties,
// negatives, zeros and denormal-scale values.
func TestSelectCutMatchesSort(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(271828)
	pools := [][]float64{
		{0, 0.25, 0.25, 0.25, 1, 2, 2, 2, 2, 3},
		{0, 0, 0, 0, 0.5},
		{-1, -0.5, 0, 0.5, 1},
		{1e-310, 2e-310, 3e-310, 1e-300, 0.1}, // denormal-scale ties
		{math.Pi, math.E, math.Sqrt2, 0.7071067811865476},
	}
	for pi, pool := range pools {
		for trial := 0; trial < 4; trial++ {
			n := 30 + rng.Intn(40)
			var edges []edgelist.Edge
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Intn(3) == 0 {
						edges = append(edges, edgelist.Edge{U: int32(u), V: int32(v), Weight: pool[rng.Intn(len(pool))]})
					}
				}
			}
			if len(edges) == 0 {
				continue
			}
			csr, _ := csrFromEdges(n, edges)
			ws := make([]float64, 0, len(edges))
			for _, e := range edges {
				ws = append(ws, e.Weight)
			}
			sort.Float64s(ws)
			for _, k := range []int{1, 2, len(edges) / 2, len(edges) - 1, len(edges)} {
				if k < 1 {
					continue
				}
				wantCut := ws[len(ws)-k]
				wantGreater := len(ws) - sort.Search(len(ws), func(i int) bool { return ws[i] > wantCut })
				wantTies := 0
				for _, w := range ws {
					if w == wantCut {
						wantTies++
					}
				}
				for _, workers := range []int{1, 3} {
					cut, greater, ties, err := cepCut(ctx, csr, workers, k, Alone)
					if err != nil {
						t.Fatal(err)
					}
					if cut != wantCut || greater != wantGreater || ties != wantTies {
						t.Fatalf("pool %d k=%d workers=%d: cepCut = (%v, %d, %d), want (%v, %d, %d)",
							pi, k, workers, cut, greater, ties, wantCut, wantGreater, wantTies)
					}
				}
			}
		}
	}
}

// TestCEPTieBoundaries is the tie-at-the-cut regression suite: the rem
// budget accounting must stay byte-identical across the edge-list CEP
// and the decision at several worker counts, over the whole graph and
// split between 2 and 3 parties — the ownership rotated so the row of
// the tie boundary is held by each party in turn — when many edges tie
// exactly at the cut, when the ties sit at weight 0, and when k exceeds
// the positive-weight edge count.
func TestCEPTieBoundaries(t *testing.T) {
	ctx := context.Background()
	must := muster(t)
	mk := func(ws ...float64) (*graph.CSR, *edgelist.Graph) {
		// A path graph 0-1, 1-2, ... keeps the canonical edge order
		// aligned with the weight list.
		edges := make([]edgelist.Edge, len(ws))
		for i, w := range ws {
			edges[i] = edgelist.Edge{U: int32(i), V: int32(i + 1), Weight: w}
		}
		return csrFromEdges(len(ws)+1, edges)
	}
	cases := []struct {
		name string
		ws   []float64
		ks   []int
	}{
		{"all-tie", []float64{1, 1, 1, 1, 1, 1}, []int{1, 3, 5, 6}},
		{"tie-at-cut", []float64{3, 1, 1, 2, 1, 3, 1, 2}, []int{2, 3, 4, 5, 7}},
		{"ties-at-zero", []float64{0, 0, 2, 0, 1, 0}, []int{1, 2, 3, 4, 6}},
		{"k-exceeds-positive", []float64{0, 0, 1, 0, 2}, []int{3, 4, 5}},
		{"all-zero", []float64{0, 0, 0, 0}, []int{1, 4}},
		{"negative-and-zero", []float64{-1, 0, 2, -1, 0}, []int{1, 2, 4, 5}},
	}
	for _, tc := range cases {
		csr, g := mk(tc.ws...)
		for _, k := range tc.ks {
			want := g.Pairs(refCEP(g, k))
			for _, workers := range []int{1, 2, 4} {
				got := must(CEPStream(ctx, csr, k, workers))
				comparePairs(t, fmt.Sprintf("%s k=%d workers=%d", tc.name, k, workers), want, got)
			}
			for n := 2; n <= 3; n++ {
				for r := 0; r < n; r++ {
					owner := func(u int32) int { return (int(u) + r) % n }
					workers := 1 + r
					got := partyPairs(t, csr, n, owner, workers, func(g *graph.CSR, p Parties) (Decision, error) {
						return CEP(ctx, g, k, workers, p)
					})
					comparePairs(t, fmt.Sprintf("%s k=%d workers=%d parties=%d rotation=%d", tc.name, k, workers, n, r), want, got)
				}
			}
		}
	}
}

// TestReducersMatchWholeRun pins the segmented (cancellation-polling)
// reducers to their whole-run counterparts bit for bit, on runs longer
// than the poll stride — the arithmetic order must not change.
func TestReducersMatchWholeRun(t *testing.T) {
	rng := stats.NewRNG(17)
	w := &pruneWorker{ctx: context.Background(), budget: streamCancelCheckEdges}
	for _, n := range []int{1, 7, streamCancelCheckEdges, streamCancelCheckEdges + 1, 3*streamCancelCheckEdges + 5} {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = rng.Float64() * float64(i%13)
		}
		if got, _ := meanReducer(w, ws); got != MeanThresholdOf(ws) {
			t.Fatalf("n=%d: meanReducer = %v, want %v", n, got, MeanThresholdOf(ws))
		}
		for _, c := range []float64{1, 2, 4} {
			red := blastReducer(c)
			if got, _ := red(w, ws); got != BlastThresholdOf(ws, c) {
				t.Fatalf("n=%d c=%v: blastReducer = %v, want %v", n, c, got, BlastThresholdOf(ws, c))
			}
		}
	}
}

// MeanThresholdOf is the whole-run oracle of meanReducer: the mean
// adjacent weight, summed in run order. Empty runs yield 0.
func MeanThresholdOf(ws []float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	s := 0.0
	for _, w := range ws {
		s += w
	}
	return s / float64(len(ws))
}

// BlastThresholdOf is the whole-run oracle of blastReducer: theta_i =
// M_i/c (c <= 0 defaults to 2). Empty runs yield 0.
func BlastThresholdOf(ws []float64, c float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	if c <= 0 {
		c = 2
	}
	m := ws[0]
	for _, w := range ws[1:] {
		if w > m {
			m = w
		}
	}
	return m / c
}

// pollCountCtx is a context whose Err() counts how often it is polled
// and, optionally, starts reporting cancellation after a fixed number of
// polls — a deterministic probe of polling granularity that needs no
// timing assumptions. Err is safe for concurrent use.
type pollCountCtx struct {
	context.Context
	polls     atomic.Int64
	failAfter int64 // 0: never fail
}

func (c *pollCountCtx) Err() error {
	n := c.polls.Add(1)
	if c.failAfter > 0 && n > c.failAfter {
		return context.Canceled
	}
	return c.Context.Err()
}

// denseCSR builds the complete graph on n nodes with synthetic weights.
func denseCSR(n int) *graph.CSR {
	var edges []edgelist.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, edgelist.Edge{U: int32(u), V: int32(v), Weight: float64((u*31+v)%17) + 0.5})
		}
	}
	csr, _ := csrFromEdges(n, edges)
	return csr
}

// TestCancellationPollsPerEdge asserts the edge-granular polling
// contract: on a dense graph whose node count fits well under the old
// 1024-node polling stride (which would have polled exactly once), the
// threshold, cut and retention passes must poll in proportion to the
// edges they process.
func TestCancellationPollsPerEdge(t *testing.T) {
	csr := denseCSR(256) // 32640 edges, 65280 entries, one old-style poll
	minPolls := int64(len(csr.Neighbors) / streamCancelCheckEdges / 2)
	if minPolls < 2 {
		t.Fatalf("test graph too small to observe polling: %d entries", len(csr.Neighbors))
	}
	run := func(name string, fn func(ctx context.Context) error) {
		ctx := &pollCountCtx{Context: context.Background()}
		if err := fn(ctx); err != nil {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
		if got := ctx.polls.Load(); got < minPolls {
			t.Errorf("%s: polled ctx %d times, want >= %d (edge-granular polling)", name, got, minPolls)
		}
	}
	run("thresholds", func(ctx context.Context) error {
		_, err := MeanThresholds(ctx, csr, 1)
		return err
	})
	run("cnp", func(ctx context.Context) error {
		_, err := CNPStream(ctx, csr, 3, Redefined, 1)
		return err
	})
	run("cep", func(ctx context.Context) error {
		_, err := CEPStream(ctx, csr, 100, 1)
		return err
	})
	run("wep", func(ctx context.Context) error {
		_, err := WEPStream(ctx, csr, 1)
		return err
	})

	// And the abort side: once the context reports cancellation, every
	// pass must surface it instead of completing.
	for name, fn := range map[string]func(ctx context.Context) error{
		"thresholds": func(ctx context.Context) error { _, err := BlastThresholds(ctx, csr, 2, 1); return err },
		"cnp":        func(ctx context.Context) error { _, err := CNPStream(ctx, csr, 3, Reciprocal, 1); return err },
		"cep":        func(ctx context.Context) error { _, err := CEPStream(ctx, csr, 100, 1); return err },
		"blast":      func(ctx context.Context) error { _, err := BlastWNPStream(ctx, csr, 2, 2, 1); return err },
	} {
		ctx := &pollCountCtx{Context: context.Background(), failAfter: 2}
		if err := fn(ctx); err != context.Canceled {
			t.Errorf("%s: err = %v after forced cancellation, want context.Canceled", name, err)
		}
	}
}

// TestCancellationTinyGraph is the regression test for fail-fast on
// graphs smaller than one poll budget: a pre-cancelled context must
// surface from every scheme even when no tick would ever fire.
func TestCancellationTinyGraph(t *testing.T) {
	csr, _ := csrFromEdges(4, []edgelist.Edge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 3},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, fn := range map[string]func() error{
		"wep":        func() error { _, err := WEPStream(ctx, csr, 1); return err },
		"cep":        func() error { _, err := CEPStream(ctx, csr, 2, 1); return err },
		"wnp1":       func() error { _, err := WNPStream(ctx, csr, Redefined, 1); return err },
		"cnp1":       func() error { _, err := CNPStream(ctx, csr, 1, Redefined, 1); return err },
		"blast":      func() error { _, err := BlastWNPStream(ctx, csr, 2, 2, 1); return err },
		"thresholds": func() error { _, err := MeanThresholds(ctx, csr, 1); return err },
	} {
		if err := fn(); err != context.Canceled {
			t.Errorf("%s: err = %v on a tiny graph with a cancelled ctx, want context.Canceled", name, err)
		}
	}
}

// hubCSR builds a skewed (hub-heavy) graph: node 0 is adjacent to every
// other node — one adjacency run longer than the poll stride — plus a
// ring of light edges among the leaves.
func hubCSR(n int) *graph.CSR {
	edges := make([]edgelist.Edge, 0, n+n/8)
	for v := 1; v < n; v++ {
		edges = append(edges, edgelist.Edge{U: 0, V: int32(v), Weight: float64(v%11) + 0.25})
	}
	for v := 1; v+8 < n; v += 8 {
		edges = append(edges, edgelist.Edge{U: int32(v), V: int32(v + 8), Weight: 0.75})
	}
	csr, _ := csrFromEdges(n, edges)
	return csr
}

// TestCancellationHubRace is the -race cancellation test of the
// satellite: concurrent cancellation against every scheme on a
// hub-heavy graph whose hub run exceeds the poll stride. The schemes
// must return ctx.Err() (from whatever pass observes it) without
// panicking, racing or deadlocking; in-run polling is exercised because
// the hub's run alone exceeds streamCancelCheckEdges.
func TestCancellationHubRace(t *testing.T) {
	csr := hubCSR(2*streamCancelCheckEdges + 100)
	schemes := map[string]func(ctx context.Context, workers int) error{
		"wep":   func(ctx context.Context, w int) error { _, err := WEPStream(ctx, csr, w); return err },
		"cep":   func(ctx context.Context, w int) error { _, err := CEPStream(ctx, csr, 1000, w); return err },
		"wnp1":  func(ctx context.Context, w int) error { _, err := WNPStream(ctx, csr, Redefined, w); return err },
		"cnp2":  func(ctx context.Context, w int) error { _, err := CNPStream(ctx, csr, 2, Reciprocal, w); return err },
		"blast": func(ctx context.Context, w int) error { _, err := BlastWNPStream(ctx, csr, 2, 2, w); return err },
	}
	for name, fn := range schemes {
		for _, workers := range []int{1, 4} {
			// Pre-cancelled: must fail fast with no output.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := fn(ctx, workers); err != context.Canceled {
				t.Errorf("%s workers=%d: pre-cancelled err = %v", name, workers, err)
			}
			// Cancelled mid-flight from another goroutine (the -race
			// exercise): the pass must terminate either way, and any
			// error it reports must be the context's.
			ctx2, cancel2 := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- fn(ctx2, workers) }()
			cancel2()
			if err := <-done; err != nil && err != context.Canceled {
				t.Errorf("%s workers=%d: mid-flight err = %v", name, workers, err)
			}
		}
	}
}

// TestChunkBoundsPure pins the chunk geometry: boundaries cover the node
// space exactly once and depend only on the node count.
func TestChunkBoundsPure(t *testing.T) {
	for _, n := range []int{0, 1, ChunkNodes - 1, ChunkNodes, ChunkNodes + 1, 5*ChunkNodes + 13} {
		nch := numChunks(n)
		prev := 0
		for c := 0; c < nch; c++ {
			lo, hi := chunkBounds(c, n)
			if lo != prev || hi <= lo || hi > n {
				t.Fatalf("n=%d chunk %d: bounds [%d, %d) after %d", n, c, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks cover %d nodes", n, prev)
		}
	}
}

// TestWeightKeyOrder pins the order-preserving key mapping, including
// the zero collapse and NaN floor.
func TestWeightKeyOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-310, 0, 1e-310, 0.5, 1, 2, 1e300, math.Inf(1)}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			ki, kj := weightKey(vals[i]), weightKey(vals[j])
			if (vals[i] < vals[j]) != (ki < kj) || (vals[i] == vals[j]) != (ki == kj) {
				t.Fatalf("key order broken for (%v, %v)", vals[i], vals[j])
			}
		}
	}
	if weightKey(math.Copysign(0, -1)) != weightKey(0) {
		t.Error("-0 and +0 must share a key")
	}
	if weightKey(math.NaN()) != 0 {
		t.Error("NaN must map to the smallest key")
	}
	for _, v := range vals {
		if got := keyWeight(weightKey(v)); got != v && !(got == 0 && v == 0) {
			t.Errorf("keyWeight(weightKey(%v)) = %v", v, got)
		}
	}
}
