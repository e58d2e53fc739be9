package graph

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/store"
)

// tinySpill forces the file-backed path on any non-empty collection:
// zero budget, small pages, a cache that holds only a few pages.
var tinySpill = SpillOptions{MemoryBudget: -1, PageEntries: 64, CacheBytes: 4 * 1024}

// testWeigh is an arbitrary orientation-symmetric weighting used to
// exercise the spilled weigh/read path without importing the weights
// package (which depends on this one).
func testWeigh(common int32, arcs, ent float64) float64 {
	return float64(common)*3 + arcs*7 + ent
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

		// The spilled stats streams must carry bit-identical values;
		// WeighSpilled observes them entry by entry.
		var pos int64
		err := spilled.WeighSpilled(func(u, v int32, common int32, arcs, ent float64) float64 {
			if resident.Neighbors[pos] != v || resident.Common[pos] != common ||
				resident.ARCS[pos] != arcs || resident.EntropySum[pos] != ent {
				t.Fatalf("entry %d: spilled (%d,%d,%v,%v) vs resident (%d,%d,%v,%v)",
					pos, v, common, arcs, ent,
					resident.Neighbors[pos], resident.Common[pos], resident.ARCS[pos], resident.EntropySum[pos])
			}
			pos++
			return testWeigh(common, arcs, ent)
		})
		if err != nil {
			t.Fatal(err)
		}
		if pos != resident.NumEntries() {
			t.Fatalf("WeighSpilled visited %d entries, want %d", pos, resident.NumEntries())
		}
		for p := range resident.Weights {
			resident.Weights[p] = testWeigh(resident.Common[p], resident.ARCS[p], resident.EntropySum[p])
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
		var want []quad
		resident.CanonicalMirror(func(u, v int32, p, mp int64) { want = append(want, quad{u, v, p, mp}) })
		i := 0
		spilled.CanonicalMirror(func(u, v int32, p, mp int64) {
			if i >= len(want) || want[i] != (quad{u, v, p, mp}) {
				t.Fatalf("mirror sweep diverged at %d", i)
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("mirror sweep visited %d edges, want %d", i, len(want))
		}

		// MaterializeWeights restores the full resident weight array.
		mw, err := spilled.MaterializeWeights()
		if err != nil {
			t.Fatal(err)
		}
		for p := range resident.Weights {
			if mw[p] != resident.Weights[p] {
				t.Fatalf("materialized weight %d = %v, want %v", p, mw[p], resident.Weights[p])
			}
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

// TestSpillFaultInjection corrupts a spilled segment file in place and
// verifies the graph fails closed: the sticky Err reports the named
// store error instead of serving mangled adjacency silently.
func TestSpillFaultInjection(t *testing.T) {
	rng := stats.NewRNG(13)
	c := blocking.RandomCollection(rng, model.Dirty, 200, 120)
	dir := t.TempDir()
	opt := tinySpill
	opt.Dir = dir
	g, err := BuildCSRSpillCtx(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	matches, err := filepath.Glob(filepath.Join(dir, "*", "neighbors.seg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("neighbors segment: %v (%d matches)", err, len(matches))
	}
	f, err := os.OpenFile(matches[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte well inside the payload region.
	var b [1]byte
	off := int64(len(store.Magic) + 32)
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g.Canonical(func(u, v int32, p int64) {})
	err = g.Err()
	if !errors.Is(err, store.ErrCorruptSegment) && !errors.Is(err, store.ErrTruncatedSegment) {
		t.Fatalf("Err() = %v, want a named segment error", err)
	}
}

func TestSpillEmptyAndEdgelessTails(t *testing.T) {
	// A collection whose blocks entail no comparisons: zero entries.
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 6}
	c.Blocks = []blocking.Block{{P1: []int32{2}}}
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
