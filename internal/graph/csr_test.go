package graph

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/model"
	"blast/internal/stats"
)

// checkCSRMatchesGraph asserts that the CSR carries exactly the edges
// and (bit-identical) accumulators of the edge-list graph.
func checkCSRMatchesGraph(t *testing.T, g *edgelist.Graph, csr *CSR) {
	t.Helper()
	if csr.NumProfiles != g.NumProfiles {
		t.Fatalf("NumProfiles = %d, want %d", csr.NumProfiles, g.NumProfiles)
	}
	if csr.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", csr.NumEdges(), g.NumEdges())
	}
	if csr.TotalBlocks != g.TotalBlocks || csr.TotalComparisons != g.TotalComparisons {
		t.Fatalf("totals = (%d, %d), want (%d, %d)",
			csr.TotalBlocks, csr.TotalComparisons, g.TotalBlocks, g.TotalComparisons)
	}
	for i := range g.BlockCounts {
		if csr.BlockCounts[i] != g.BlockCounts[i] {
			t.Fatalf("BlockCounts[%d] = %d, want %d", i, csr.BlockCounts[i], g.BlockCounts[i])
		}
	}
	for n := 0; n < g.NumProfiles; n++ {
		if csr.Degree(n) != int(g.Degrees[n]) {
			t.Fatalf("Degree(%d) = %d, want %d", n, csr.Degree(n), g.Degrees[n])
		}
	}
	// Every entry must mirror the corresponding edge's accumulators,
	// with runs sorted by ascending neighbor.
	for n := 0; n < csr.NumProfiles; n++ {
		prev := int32(-1)
		for p := csr.Offsets[n]; p < csr.Offsets[n+1]; p++ {
			v := csr.Neighbors[p]
			if v <= prev {
				t.Fatalf("node %d: neighbors not strictly ascending (%d after %d)", n, v, prev)
			}
			prev = v
			e := g.EdgeBetween(n, int(v))
			if e == nil {
				t.Fatalf("CSR edge (%d,%d) missing from Graph", n, v)
			}
			if csr.Common[p] != e.Common || csr.ARCS[p] != e.ARCS || csr.EntropySum[p] != e.EntropySum {
				t.Fatalf("edge (%d,%d): CSR stats (%d, %v, %v) != Graph (%d, %v, %v)",
					n, v, csr.Common[p], csr.ARCS[p], csr.EntropySum[p],
					e.Common, e.ARCS, e.EntropySum)
			}
		}
	}
	// Canonical iteration must enumerate exactly Edges, in order.
	i := 0
	csr.Canonical(func(u, v int32, p int64) {
		if i >= len(g.Edges) {
			t.Fatalf("Canonical enumerated more than %d edges", len(g.Edges))
		}
		if e := &g.Edges[i]; e.U != u || e.V != v {
			t.Fatalf("canonical edge %d = (%d,%d), want (%d,%d)", i, u, v, e.U, e.V)
		}
		i++
	})
	if i != len(g.Edges) {
		t.Fatalf("Canonical enumerated %d edges, want %d", i, len(g.Edges))
	}
}

func TestBuildCSRMatchesBuildOnPaperExample(t *testing.T) {
	c := blocking.TokenBlocking(datasets.PaperExample())
	checkCSRMatchesGraph(t, edgelist.Build(c), BuildCSR(c))
}

// csrEntry is one adjacency entry with its co-occurrence statistics.
type csrEntry struct {
	v, common int32
	arcs, ent float64
}

// csrRows lists a graph's adjacency row by row: straight from the entry
// arrays of a resident graph, page by page through the typed loader for
// a spilled one.
func csrRows(t *testing.T, g *CSR) [][]csrEntry {
	t.Helper()
	rows := make([][]csrEntry, g.NumProfiles)
	nbr, common, arcs, ent := g.Neighbors, g.Common, g.ARCS, g.EntropySum
	if pg := g.pages; pg != nil {
		nbr, common, arcs, ent = nil, nil, nil, nil
		for p := 0; p < pg.pages(); p++ {
			load := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			n, _, err := loadPage[int32](pg, streamNbr, p, nil, nil)
			load(err)
			c, _, err := loadPage[int32](pg, streamCommon, p, nil, nil)
			load(err)
			a, _, err := loadPage[float64](pg, streamARCS, p, nil, nil)
			load(err)
			e, _, err := loadPage[float64](pg, streamEnt, p, nil, nil)
			load(err)
			nbr, common, arcs, ent = append(nbr, n...), append(common, c...), append(arcs, a...), append(ent, e...)
		}
	}
	for n := range rows {
		for p := g.Offsets[n]; p < g.Offsets[n+1]; p++ {
			rows[n] = append(rows[n], csrEntry{nbr[p], common[p], arcs[p], ent[p]})
		}
	}
	return rows
}

// checkExactArrays asserts that every entry array was allocated at its
// exact size: nothing of a builder's growth slack may survive into the
// serving index. A graph filled through the weighing sink has only two.
func checkExactArrays(t *testing.T, label string, g *CSR, weighed bool) {
	t.Helper()
	n := int(g.NumEntries())
	arrays := map[string][2]int{
		"Neighbors": {len(g.Neighbors), cap(g.Neighbors)},
		"Weights":   {len(g.Weights), cap(g.Weights)},
	}
	if weighed {
		if g.Common != nil || g.ARCS != nil || g.EntropySum != nil {
			t.Fatalf("%s: the weighing fill made statistics arrays", label)
		}
	} else {
		arrays["Common"] = [2]int{len(g.Common), cap(g.Common)}
		arrays["ARCS"] = [2]int{len(g.ARCS), cap(g.ARCS)}
		arrays["EntropySum"] = [2]int{len(g.EntropySum), cap(g.EntropySum)}
	}
	for name, lc := range arrays {
		if lc[0] != n || lc[1] != n {
			t.Fatalf("%s: %s has len %d cap %d, want both %d", label, name, lc[0], lc[1], n)
		}
	}
}

// checkWeighingFill holds the fill pass's weighing sink to the kernel it
// replaces: over the same rows, weighing each entry as it is emitted
// yields the Offsets and Neighbors of the statistics-keeping build and,
// bit for bit, the Weights WeighEntries then computes from the
// statistics — while making none of the statistics arrays, so that the
// kernel's "statistics were released" guard refuses to re-weigh it.
func checkWeighingFill(t *testing.T, label string, c *blocking.Collection, owns func(int32) bool, workers int, kept *CSR) {
	t.Helper()
	ctx := context.Background()
	b, err := StartOwnedCSR(ctx, c, owns, workers)
	if err != nil {
		t.Fatal(err)
	}
	if h := b.Header(); !slices.Equal(h.Offsets, kept.Offsets) || h.Neighbors != nil || h.Weights != nil {
		t.Fatalf("%s: the degree pass left offsets equal=%v, entry arrays made=%v", label, slices.Equal(h.Offsets, kept.Offsets), h.Neighbors != nil || h.Weights != nil)
	}
	if !slices.Equal(b.Header().Degrees(), kept.Degrees()) {
		t.Fatalf("%s: the degree pass's degrees differ from the finished build's", label)
	}
	g, err := b.Fill(ctx, testWeigh)
	if err != nil {
		t.Fatal(err)
	}
	checkExactArrays(t, label, g, true)
	if !slices.Equal(g.Offsets, kept.Offsets) || !slices.Equal(g.Neighbors, kept.Neighbors) {
		t.Fatalf("%s: weighing fill adjacency differs from the statistics-keeping fill", label)
	}
	if !reflect.DeepEqual(g.BlockCounts, kept.BlockCounts) || g.TotalBlocks != kept.TotalBlocks || g.TotalComparisons != kept.TotalComparisons {
		t.Fatalf("%s: weighing fill header differs", label)
	}
	sameBits(t, label, g.Weights, wantWeights(kept, testWeigh))
	if err := g.WeighEntries(ctx, workers, testWeigh); g.NumEntries() > 0 && err == nil {
		t.Fatalf("%s: the kernel re-weighed a graph that has no statistics", label)
	}
}

// checkBuildersAgree holds every builder to the edge-list oracle on one
// collection: the serial CSR matches edgelist.Build; the parallel build is
// the serial one array for array at every worker count; the owned
// builds of 1, 2 and 4 owners partition its rows; the spilled build
// serves the same rows, and the under-budget spill build is resident
// and equal.
func checkBuildersAgree(t *testing.T, label string, c *blocking.Collection) {
	t.Helper()
	ctx := context.Background()
	full := BuildCSR(c)
	checkCSRMatchesGraph(t, edgelist.Build(c), full)
	checkExactArrays(t, label+" serial", full, false)
	checkWeighingFill(t, label+" serial weighing fill", c, nil, 1, full)
	rows := csrRows(t, full)
	for n, row := range rows {
		for _, e := range row {
			if int(e.v) == n {
				t.Fatalf("%s: node %d lists itself as a neighbor", label, n)
			}
		}
	}

	for _, workers := range []int{0, 2, 3, 4, 8} {
		par, err := BuildCSRParallelCtx(ctx, c, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, full) {
			t.Fatalf("%s: workers=%d build differs from the serial build", label, workers)
		}
		checkExactArrays(t, fmt.Sprintf("%s workers=%d", label, workers), par, false)
		checkWeighingFill(t, fmt.Sprintf("%s workers=%d weighing fill", label, workers), c, nil, workers, full)
	}

	for _, owners := range []int{1, 2, 4} {
		for k := 0; k < owners; k++ {
			owns := func(n int32) bool { return int(n)%owners == k }
			workers := []int{1, 2, 4}[k%3]
			g, err := BuildOwnedCSR(ctx, c, owns, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkExactArrays(t, fmt.Sprintf("%s owner %d/%d", label, k, owners), g, false)
			checkWeighingFill(t, fmt.Sprintf("%s owner %d/%d weighing fill", label, k, owners), c, owns, workers, g)
			if !reflect.DeepEqual(g.BlockCounts, full.BlockCounts) || g.TotalBlocks != full.TotalBlocks || g.TotalComparisons != full.TotalComparisons {
				t.Fatalf("%s: owner %d/%d header differs from the full build", label, k, owners)
			}
			for n, row := range csrRows(t, g) {
				want := rows[n]
				if !owns(int32(n)) {
					want = nil
				}
				if !reflect.DeepEqual(row, want) {
					t.Fatalf("%s: owner %d/%d row %d = %v, want %v", label, k, owners, n, row, want)
				}
			}
		}
	}

	opt := tinySpill
	opt.Dir = t.TempDir()
	spilled, err := BuildCSRSpillCtx(ctx, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.Spilled() || !reflect.DeepEqual(spilled.Offsets, full.Offsets) {
		t.Fatalf("%s: spilled build: spilled=%v, offsets equal=%v", label, spilled.Spilled(), reflect.DeepEqual(spilled.Offsets, full.Offsets))
	}
	if got := csrRows(t, spilled); !reflect.DeepEqual(got, rows) {
		t.Fatalf("%s: spilled rows differ from the resident build", label)
	}
	if err := spilled.Close(); err != nil {
		t.Fatal(err)
	}
	roomy, err := BuildCSRSpillCtx(ctx, c, SpillOptions{Dir: opt.Dir, MemoryBudget: 1 << 40, PageEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roomy, full) {
		t.Fatalf("%s: under-budget spill build differs from BuildCSR", label)
	}
	checkExactArrays(t, label+" under-budget spill", roomy, false)
}

func TestBuildCSRMatchesBuildOnRandomCollections(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 40+rng.Intn(60), 25+rng.Intn(40))
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d: invalid random collection: %v", seed, err)
			}
			checkBuildersAgree(t, fmt.Sprintf("seed %d %v", seed, kind), c)
		}
	}
}

func TestBuildCSRParallelMatchesSerial(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
		checkBuildersAgree(t, kind.String(), blocking.RandomCollection(rng, kind, 200, 150))
	}
}

// TestBuildCSRShapes runs the builder agreement over the shapes the
// kernel's emission and ownership logic could get wrong.
func TestBuildCSRShapes(t *testing.T) {
	rng := stats.NewRNG(5)

	// A hub adjacent to every profile, over a random background: its run
	// sets every word of the neighbor bitmap.
	hubDirty := blocking.RandomCollection(rng, model.Dirty, 300, 80)
	var hubs []blocking.Block
	for i := int32(1); i < 300; i++ {
		hubs = append(hubs, blocking.Block{Key: fmt.Sprintf("hub%03d", i), P1: []int32{0, i}, Entropy: 0.5})
	}
	hubDirty = withBlocks(hubDirty, hubs...)
	hubClean := blocking.RandomCollection(rng, model.CleanClean, 300, 80)
	e2 := make([]int32, 0, 150)
	for j := int32(hubClean.Split); j < 300; j++ {
		e2 = append(e2, j)
	}
	hubClean = withBlocks(hubClean, blocking.Block{Key: "hub", P1: []int32{3}, P2: e2, Entropy: 1.5})

	// N far above the mean degree: most summary words stay zero and a
	// run's neighbors sit in words far apart.
	var sparseBlocks []blocking.Block
	for b := 0; b < 1500; b++ {
		blk := blocking.Block{Key: fmt.Sprintf("s%04d", b), Entropy: rng.Float64()}
		for len(blk.P1) < 2+b%2 {
			if id := int32(rng.Intn(100_000)); !slices.Contains(blk.P1, id) {
				blk.P1 = append(blk.P1, id)
			}
		}
		sparseBlocks = append(sparseBlocks, blk)
	}
	sparse := blocking.FromBlocks(model.Dirty, 100_000, 0, sparseBlocks)

	// Blocks that entail no comparison, between blocks that do.
	free := blocking.FromBlocks(model.CleanClean, 12, 6, []blocking.Block{
		{Key: "a", P1: []int32{0, 1}, P2: []int32{}, Entropy: 1},
		{Key: "b", P1: []int32{1}, P2: []int32{7, 8}, Entropy: 0.3},
		{Key: "c", P1: []int32{}, P2: []int32{9}, Entropy: 1},
		{Key: "d", P1: []int32{1, 2}, P2: []int32{8}, Entropy: 0},
	})

	// Profiles past the last block member: trailing empty runs.
	tail := blocking.RandomCollection(rng, model.Dirty, 90, 40)
	tail.NumProfiles = 700

	for label, c := range map[string]*blocking.Collection{
		"hub dirty": hubDirty, "hub clean-clean": hubClean, "sparse": sparse,
		"comparison-free": free, "edgeless tail": tail,
		"no blocks": {Kind: model.Dirty, NumProfiles: 5}, "no profiles": {Kind: model.Dirty},
	} {
		checkBuildersAgree(t, label, c)
	}
	if hubDirty.NumProfiles-1 != BuildCSR(hubDirty).Degree(0) {
		t.Error("the dirty hub is not adjacent to every profile")
	}
}

// tripCtx reports context.Canceled from its after-th Err call onwards
// and counts the calls.
type tripCtx struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *tripCtx) Err() error {
	if c.polls.Add(1) >= c.after {
		return context.Canceled
	}
	return nil
}

// TestBuildCSRCancellation: every builder returns ctx.Err() with no
// partial graph, no goroutine and no spill file left behind, whether
// the context is cancelled before the build or trips at any poll of the
// degree pass, the fill pass or the spill loop; and polls keep their
// granularity — once per csrCancelCheckEvery nodes, sooner across hubs.
func TestBuildCSRCancellation(t *testing.T) {
	c := blocking.RandomCollection(stats.NewRNG(9), model.Dirty, 3*csrCancelCheckEvery+100, 900)
	spillDir := t.TempDir()
	builders := map[string]func(ctx context.Context) (*CSR, error){
		"serial":   func(ctx context.Context) (*CSR, error) { return BuildCSRCtx(ctx, c) },
		"parallel": func(ctx context.Context) (*CSR, error) { return BuildCSRParallelCtx(ctx, c, 4) },
		"owned": func(ctx context.Context) (*CSR, error) {
			return BuildOwnedCSR(ctx, c, func(n int32) bool { return n%2 == 0 }, 2)
		},
		"spill": func(ctx context.Context) (*CSR, error) {
			return BuildCSRSpillCtx(ctx, c, SpillOptions{Dir: spillDir, MemoryBudget: -1, PageEntries: 64})
		},
		// The two passes apart, the fill weighing as it emits: a trip in
		// either one yields ctx.Err() and no graph.
		"weighing fill": func(ctx context.Context) (*CSR, error) {
			b, err := StartOwnedCSR(ctx, c, func(n int32) bool { return n%3 != 0 }, 2)
			if err != nil {
				return nil, err
			}
			return b.Fill(ctx, testWeigh)
		},
	}
	before := runtime.NumGoroutine()
	for name, build := range builders {
		// A healthy build tells how many polls there are to trip at.
		counter := &tripCtx{Context: context.Background(), after: math.MaxInt64}
		g, err := build(counter)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		polls := counter.polls.Load()
		for after := int64(1); after <= polls; after++ {
			if g, err := build(&tripCtx{Context: context.Background(), after: after}); err != context.Canceled || g != nil {
				t.Fatalf("%s tripping at poll %d of %d: (%v, %v), want (nil, context.Canceled)", name, after, polls, g, err)
			}
		}
	}
	if left, err := os.ReadDir(spillDir); err != nil || len(left) != 0 {
		t.Errorf("cancelled spill builds left %d entries behind (%v)", len(left), err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked by cancelled builds: %d > %d", n, before)
	}

	// Granularity. A serial pass polls at least once per
	// csrCancelCheckEvery nodes — exactly that over edgeless nodes — and
	// each of the two passes is closed by one more check.
	edgeless := &blocking.Collection{Kind: model.Dirty, NumProfiles: c.NumProfiles}
	perPass := int64((c.NumProfiles+csrCancelCheckEvery-1)/csrCancelCheckEvery) + 1
	for _, tc := range []struct {
		c     *blocking.Collection
		exact bool
	}{{edgeless, true}, {c, false}} {
		counter := &tripCtx{Context: context.Background(), after: math.MaxInt64}
		if _, err := BuildCSRCtx(counter, tc.c); err != nil {
			t.Fatal(err)
		}
		if got := counter.polls.Load(); got < 2*perPass || (tc.exact && got != 2*perPass) {
			t.Errorf("serial build of %d nodes polled %d times, want %d (exactly: %v)", tc.c.NumProfiles, got, 2*perPass, tc.exact)
		}
	}
	// One block holding all 1500 profiles makes every node visit 1500
	// comparisons, so the entry budget must trigger polls well inside
	// the first csrCancelCheckEvery nodes.
	all := make([]int32, 1500)
	for i := range all {
		all[i] = int32(i)
	}
	hubs := blocking.FromBlocks(model.Dirty, len(all), 0, []blocking.Block{{Key: "all", P1: all, Entropy: 1}})
	counter := &tripCtx{Context: context.Background(), after: math.MaxInt64}
	if _, err := BuildCSRCtx(counter, hubs); err != nil {
		t.Fatal(err)
	}
	nodePolls := 2 * (int64((hubs.NumProfiles+csrCancelCheckEvery-1)/csrCancelCheckEvery) + 1)
	if got := counter.polls.Load(); got <= nodePolls {
		t.Errorf("hub build polled %d times, want more than the %d node-count polls", got, nodePolls)
	}
}

// TestWeighEntriesCancellation trips every poll of the weighting kernel
// in both residencies, serial and parallel: it returns context.Canceled
// with every worker gone, polls at least once per csrCancelCheckEvery
// entries, and over a spilled graph a cancelled weighting leaves no
// half-written segment, no sticky error, and the previous weights
// readable.
func TestWeighEntriesCancellation(t *testing.T) {
	bg := context.Background()
	c := blocking.RandomCollection(stats.NewRNG(9), model.Dirty, 3*csrCancelCheckEvery+100, 900)
	resident := BuildCSR(c)
	spillDir := t.TempDir()
	spilled, err := BuildCSRSpillCtx(bg, c, SpillOptions{Dir: spillDir, MemoryBudget: -1, PageEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := spilled.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	want := wantWeights(resident, testWeigh)
	other := func(u, v, common int32, arcs, ent float64) float64 { return -1 }

	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		g       *CSR
		workers int
	}{{"resident serial", resident, 1}, {"resident parallel", resident, 4}, {"spilled serial", spilled, 1}, {"spilled parallel", spilled, 3}} {
		// A healthy weighting tells how many polls there are to trip at.
		counter := &tripCtx{Context: bg, after: math.MaxInt64}
		if err := tc.g.WeighEntries(counter, tc.workers, testWeigh); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		polls := counter.polls.Load()
		if floor := resident.NumEntries() / csrCancelCheckEvery; polls < floor {
			t.Errorf("%s: %d polls over %d entries, want at least %d", tc.name, polls, resident.NumEntries(), floor)
		}
		for after := int64(1); after <= polls; after++ {
			if err := tc.g.WeighEntries(&tripCtx{Context: bg, after: after}, tc.workers, other); err != context.Canceled {
				t.Fatalf("%s tripping at poll %d of %d: %v, want context.Canceled", tc.name, after, polls, err)
			}
			if !tc.g.Spilled() {
				continue
			}
			if err := tc.g.Err(); err != nil {
				t.Fatalf("%s: cancellation at poll %d stuck on the graph: %v", tc.name, after, err)
			}
			got, err := readWeights(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s after cancellation at poll %d", tc.name, after), got, want)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(spillDir, "*", "*")); len(segs) != numStreams {
		t.Errorf("cancelled weightings left segments behind: %v", segs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked by cancelled weightings: %d > %d", n, before)
	}
}

func TestBuildCSRSkipsComparisonFreeBlocks(t *testing.T) {
	c := blocking.FromBlocks(model.Dirty, 4, 0, []blocking.Block{
		{Key: "single", P1: []int32{2}, Entropy: 1},   // no comparisons
		{Key: "pair", P1: []int32{0, 1}, Entropy: 1},  // one comparison
		{Key: "lonely", P1: []int32{3}, Entropy: 0.5}, // no comparisons
	})
	g := BuildCSR(c)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 || g.Degree(3) != 0 {
		t.Error("singleton blocks should produce no adjacency")
	}
}

func TestBuildCSRRegistryDatasets(t *testing.T) {
	// Paper-shaped data at tiny scale: the CSR must agree with the
	// edge-list graph on a real token-blocked workload of each kind.
	for _, name := range []string{"ar1", "census"} {
		gen, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := blocking.CleanWorkflow(blocking.TokenBlocking(gen(0.05, 42)), 0.5, 0.8)
		checkCSRMatchesGraph(t, edgelist.Build(c), BuildCSR(c))
	}
}

func TestReleaseStats(t *testing.T) {
	c := blocking.TokenBlocking(datasets.PaperExample())
	g := BuildCSR(c)
	g.ReleaseStats()
	if g.Common != nil || g.ARCS != nil || g.EntropySum != nil {
		t.Error("ReleaseStats should drop the accumulator arrays")
	}
	if len(g.Weights) != len(g.Neighbors) {
		t.Error("Weights must survive ReleaseStats")
	}
}

func TestCutRangesCoverAndBalance(t *testing.T) {
	rng := stats.NewRNG(3)
	offsets := make([]int64, 101)
	for i := 1; i < len(offsets); i++ {
		offsets[i] = offsets[i-1] + int64(rng.Intn(20))
	}
	n := len(offsets) - 1
	for _, workers := range []int{1, 2, 3, 7, 100} {
		bounds := cutRanges(offsets, workers)
		if bounds[0] != 0 || bounds[workers] != n {
			t.Fatalf("workers=%d: bounds do not cover: %v", workers, bounds)
		}
		for w := 0; w < workers; w++ {
			if bounds[w] > bounds[w+1] {
				t.Fatalf("workers=%d: bounds not monotone: %v", workers, bounds)
			}
		}
	}
}

// TestCanonicalMirrorPointsBack pins the run order the tests' mirror
// sweep (canonicalMirror) relies on: for every canonical edge, p sits in
// u's run pointing at v and mp sits in v's run pointing back at u.
func TestCanonicalMirrorPointsBack(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed * 31337)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 30+rng.Intn(50), 25+rng.Intn(25))
			g := BuildCSR(c)
			edges := 0
			if err := canonicalMirror(g, func(u, v int32, p, mp int64) {
				edges++
				if p < g.Offsets[u] || p >= g.Offsets[u+1] || g.Neighbors[p] != v {
					t.Fatalf("edge (%d,%d): canonical entry %d is not u's entry for v", u, v, p)
				}
				if mp < g.Offsets[v] || mp >= g.Offsets[v+1] || g.Neighbors[mp] != u {
					t.Fatalf("edge (%d,%d): mirror entry %d is not v's entry for u", u, v, mp)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if edges != g.NumEdges() {
				t.Fatalf("sweep visited %d edges, want %d", edges, g.NumEdges())
			}
		}
	}
}

// withBlocks returns c with extra blocks laid out after its own.
func withBlocks(c *blocking.Collection, extra ...blocking.Block) *blocking.Collection {
	blocks := make([]blocking.Block, 0, c.Len()+len(extra))
	for i := 0; i < c.Len(); i++ {
		blocks = append(blocks, c.Block(i))
	}
	return blocking.FromBlocks(c.Kind, c.NumProfiles, c.Split, append(blocks, extra...))
}

// canonicalMirror visits each edge once from its canonical (u < v) entry
// p, with mp the mirror entry in v's run pointing back at u: the sub-v
// neighbors of v lead its ascending run in the order their canonical
// entries are visited, so a per-node cursor lands on each mirror.
func canonicalMirror(g *CSR, fn func(u, v int32, p, mp int64)) error {
	cursors := make([]int64, g.NumProfiles)
	return g.CanonicalCtx(context.Background(), func(u, v int32, p int64) {
		fn(u, v, p, g.Offsets[v]+cursors[v])
		cursors[v]++
	})
}
