package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/store"
)

// tinySpill forces the file-backed path on any non-empty collection:
// zero budget, small pages, a cache that holds only a few pages.
var tinySpill = SpillOptions{MemoryBudget: -1, PageEntries: 64, CacheBytes: 4 * 1024}

// testWeigh is an arbitrary EntryWeight — pure, and the same for (u, v)
// and (v, u) — used to exercise the weighting kernel and the weighted
// read paths without importing the weights package (which depends on
// this one).
func testWeigh(u, v, common int32, arcs, ent float64) float64 {
	if v < u {
		u, v = v, u
	}
	return float64(common)*3 + arcs*7 + ent + float64(u)/8 + float64(v)/1024
}

// wantWeights is the kernel's specification: entry p of row u carries
// fn(u, Neighbors[p], Common[p], ARCS[p], EntropySum[p]).
func wantWeights(resident *CSR, fn EntryWeight) []float64 {
	want := make([]float64, resident.NumEntries())
	for u := 0; u < resident.NumProfiles; u++ {
		for p := resident.Offsets[u]; p < resident.Offsets[u+1]; p++ {
			want[p] = fn(int32(u), resident.Neighbors[p], resident.Common[p], resident.ARCS[p], resident.EntropySum[p])
		}
	}
	return want
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", label, len(got), len(want))
	}
	for p := range want {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("%s: weight %d = %v, want %v", label, p, got[p], want[p])
		}
	}
}

func buildSpilledPair(t *testing.T, c *blocking.Collection) (resident, spilled *CSR) {
	t.Helper()
	resident = BuildCSR(c)
	opt := tinySpill
	opt.Dir = t.TempDir()
	spilled, err := BuildCSRSpillCtx(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.Spilled() {
		t.Fatal("zero-budget build did not spill")
	}
	t.Cleanup(func() {
		if err := spilled.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return resident, spilled
}

func TestBuildCSRSpillMatchesResident(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
		c := blocking.RandomCollection(rng, kind, 300, 200)
		resident, spilled := buildSpilledPair(t, c)

		if spilled.NumProfiles != resident.NumProfiles ||
			spilled.NumEntries() != resident.NumEntries() ||
			spilled.NumEdges() != resident.NumEdges() {
			t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
				spilled.NumProfiles, spilled.NumEntries(), spilled.NumEdges(),
				resident.NumProfiles, resident.NumEntries(), resident.NumEdges())
		}
		for i := range resident.Offsets {
			if spilled.Offsets[i] != resident.Offsets[i] {
				t.Fatalf("Offsets[%d] = %d, want %d", i, spilled.Offsets[i], resident.Offsets[i])
			}
		}

		// The spilled stats streams carry bit-identical values.
		if !reflect.DeepEqual(csrRows(t, spilled), csrRows(t, resident)) {
			t.Fatal("spilled rows differ from the resident build")
		}

		// The kernel's contract: fn is called once per entry, from any
		// worker in any order, and entry p ends up with fn of entry p —
		// in place over the resident arrays, in the weights segment of
		// the spilled graph — at every worker count.
		want := wantWeights(resident, testWeigh)
		for _, workers := range []int{1, 3, 0} {
			var calls atomic.Int64
			counted := func(u, v, common int32, arcs, ent float64) float64 {
				calls.Add(1)
				return testWeigh(u, v, common, arcs, ent)
			}
			clear(resident.Weights)
			for _, g := range []*CSR{resident, spilled} {
				if err := g.WeighEntries(context.Background(), workers, counted); err != nil {
					t.Fatal(err)
				}
			}
			if got := calls.Load(); got != 2*resident.NumEntries() {
				t.Fatalf("workers=%d: %d weigh calls over two graphs of %d entries", workers, got, resident.NumEntries())
			}
			sameBits(t, fmt.Sprintf("resident workers=%d", workers), resident.Weights, want)
			mw, err := readWeights(spilled)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("spilled workers=%d", workers), mw, want)
		}
		if sub, _ := filepath.Glob(filepath.Join(spilled.pages.dir, "weights.*.seg")); len(sub) != 1 {
			t.Fatalf("weights segments after three weightings: %v, want the last one only", sub)
		}

		// A cursor serves the resident bytes whatever order it is moved
		// in, without touching the page cache.
		for _, step := range []int{1, -1, 7} {
			runs := spilled.Reader()
			for i, u := 0, 0; i < resident.NumProfiles; i, u = i+1, (u+step+resident.NumProfiles)%resident.NumProfiles {
				rn, rw := resident.Run(u)
				sn, sw := runs.Run(u)
				if !slices.Equal(rn, sn) || !slices.Equal(rw, sw) || !slices.Equal(rn, runs.Neighbors(u)) {
					t.Fatalf("cursor step %d: node %d run differs from the resident one", step, u)
				}
			}
		}
		if st := spilled.CacheStats(); st.Hits+st.Misses != 0 {
			t.Fatalf("sequential readers went through the page cache: %+v", st)
		}

		// Run accessors serve identical bytes in both modes, including
		// under cache pressure (the tiny cache evicts constantly).
		for round := 0; round < 2; round++ {
			for u := 0; u < resident.NumProfiles; u++ {
				rn, rw := resident.Run(u)
				sn, sw := spilled.Run(u)
				if len(rn) != len(sn) {
					t.Fatalf("node %d run length %d vs %d", u, len(sn), len(rn))
				}
				for i := range rn {
					if rn[i] != sn[i] || rw[i] != sw[i] {
						t.Fatalf("node %d entry %d: (%d,%v) vs (%d,%v)", u, i, sn[i], sw[i], rn[i], rw[i])
					}
				}
			}
		}

		// CanonicalMirror sweeps visit identical (u, v, p, mp) tuples.
		type quad struct {
			u, v  int32
			p, mp int64
		}
		var edges []quad
		if err := canonicalMirror(resident, func(u, v int32, p, mp int64) { edges = append(edges, quad{u, v, p, mp}) }); err != nil {
			t.Fatal(err)
		}
		i := 0
		if err := canonicalMirror(spilled, func(u, v int32, p, mp int64) {
			if i >= len(edges) || edges[i] != (quad{u, v, p, mp}) {
				t.Fatalf("mirror sweep diverged at %d", i)
			}
			i++
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(edges) {
			t.Fatalf("mirror sweep visited %d edges, want %d", i, len(edges))
		}

		// ReleaseStats drops the stat segment files but adjacency and
		// weights keep serving.
		spilled.ReleaseStats()
		if n, w := spilled.Run(1); len(n) != len(w) {
			t.Fatalf("post-release run lengths differ: %d vs %d", len(n), len(w))
		}
		if err := spilled.Err(); err != nil {
			t.Fatalf("spilled graph unhealthy: %v", err)
		}
		if st := spilled.CacheStats(); st.Hits+st.Misses == 0 {
			t.Fatal("page cache never consulted")
		}
	}
}

func TestBuildCSRSpillUnderBudgetStaysResident(t *testing.T) {
	rng := stats.NewRNG(5)
	c := blocking.RandomCollection(rng, model.Dirty, 120, 80)
	want := BuildCSR(c)
	got, err := BuildCSRSpillCtx(context.Background(), c, SpillOptions{MemoryBudget: 1 << 30, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Spilled() {
		t.Fatal("build under budget spilled")
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%d entries, want %d", len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] || got.Common[i] != want.Common[i] ||
			got.ARCS[i] != want.ARCS[i] || got.EntropySum[i] != want.EntropySum[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("Offsets[%d] differs", i)
		}
	}
}

func TestSpillCloseRemovesSegments(t *testing.T) {
	rng := stats.NewRNG(9)
	c := blocking.RandomCollection(rng, model.Dirty, 100, 60)
	dir := t.TempDir()
	opt := tinySpill
	opt.Dir = dir
	g, err := BuildCSRSpillCtx(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := os.ReadDir(dir)
	if err != nil || len(sub) != 1 {
		t.Fatalf("spill subdirectory: %v (%d entries)", err, len(sub))
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("%d entries left after Close", len(left))
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// flipSegmentByte flips one payload byte of the first frame of a
// segment file.
func flipSegmentByte(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
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

// TestSpillFaultInjection corrupts a spilled segment file in place and
// verifies the graph fails closed on every read path: the cached row
// read, the canonical sweep and a run cursor each surface the named
// store error instead of serving mangled adjacency or weights, the
// failing page reads as zeros, and later passes refuse the graph.
func TestSpillFaultInjection(t *testing.T) {
	named := func(err error) bool {
		return errors.Is(err, store.ErrCorruptSegment) || errors.Is(err, store.ErrTruncatedSegment)
	}
	c := blocking.RandomCollection(stats.NewRNG(13), model.Dirty, 200, 120)
	resident := BuildCSR(c)
	if err := resident.WeighEntries(context.Background(), 1, testWeigh); err != nil {
		t.Fatal(err)
	}
	build := func(stream int) *CSR {
		opt := tinySpill
		opt.Dir = t.TempDir()
		g, err := BuildCSRSpillCtx(context.Background(), c, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		if err := g.WeighEntries(context.Background(), 2, testWeigh); err != nil {
			t.Fatal(err)
		}
		flipSegmentByte(t, g.pages.arenas[stream].Path())
		return g
	}

	g := build(streamNbr)
	for u := 0; g.Err() == nil && u < g.NumProfiles; u++ {
		g.Run(u)
	}
	if err := g.Err(); !named(err) {
		t.Fatalf("cached read: Err() = %v, want a named segment error", err)
	}

	g = build(streamNbr)
	visited := 0
	if err := g.CanonicalCtx(context.Background(), func(u, v int32, p int64) { visited++ }); !named(err) {
		t.Fatalf("CanonicalCtx = %v after %d edges, want a named segment error", err, visited)
	}
	if err := g.CanonicalCtx(context.Background(), func(u, v int32, p int64) { t.Fatal("sweep over a failed graph") }); !named(err) {
		t.Fatalf("second CanonicalCtx = %v, want the sticky error", err)
	}

	// A cursor over a bad page of either stream it reads: the page's
	// runs come back zeroed in that stream, everything else intact.
	for _, stream := range []int{streamNbr, streamWts} {
		g := build(stream)
		runs := g.Reader()
		for u := 0; u < g.NumProfiles; u++ {
			wantNbr, wantWts := resident.Run(u)
			if u < int(g.pages.startNode[1]) {
				if stream == streamNbr {
					wantNbr = make([]int32, len(wantNbr))
				} else {
					wantWts = make([]float64, len(wantWts))
				}
			}
			if nbr, wts := runs.Run(u); !slices.Equal(nbr, wantNbr) || !slices.Equal(wts, wantWts) {
				t.Fatalf("%s corrupt: node %d reads (%v, %v), want (%v, %v)", streamNames[stream], u, nbr, wts, wantNbr, wantWts)
			}
		}
		if err := g.Err(); !named(err) {
			t.Fatalf("%s corrupt: cursor sweep left Err() = %v, want a named segment error", streamNames[stream], err)
		}
		if err := g.WeighEntries(context.Background(), 1, testWeigh); !named(err) {
			t.Fatalf("%s corrupt: weighting a failed graph = %v, want the sticky error", streamNames[stream], err)
		}
	}
}

func TestSpillEmptyAndEdgelessTails(t *testing.T) {
	// A collection whose blocks entail no comparisons: zero entries.
	c := blocking.FromBlocks(model.Dirty, 6, 0, []blocking.Block{{P1: []int32{2}}})
	opt := tinySpill
	opt.Dir = t.TempDir()
	g, err := BuildCSRSpillCtx(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumEntries() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d entries", g.NumEntries())
	}
	for u := 0; u < 6; u++ {
		if n, _ := g.Run(u); len(n) != 0 {
			t.Fatalf("node %d run non-empty", u)
		}
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
}

// readWeights reads every weight of g back in entry order through a
// run cursor — over a spilled graph, every weights page once.
func readWeights(g *CSR) ([]float64, error) {
	out := make([]float64, 0, g.NumEntries())
	runs := g.Reader()
	for u := 0; u < g.NumProfiles; u++ {
		_, wts := runs.Run(u)
		out = append(out, wts...)
	}
	return out, g.Err()
}
