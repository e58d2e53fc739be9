package blast

// Regression tests for the serving-footprint contract of a query-only
// index: the cold build releases both the per-entry co-occurrence
// statistics (ReleaseStats, long-standing) and the per-profile block
// counts (ReleaseBlockCounts — BlockCounts used to stay live behind
// ReleaseStats), while Insert transparently re-derives everything the
// mutation path needs.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
)

// TestIndexReleasesServingOnlyArrays pins which graph arrays a cold
// query-only index retains: the serving reads (Offsets, Neighbors,
// Weights, retention mask) stay, the build-only inputs (Common, ARCS,
// EntropySum, BlockCounts) must be gone.
func TestIndexReleasesServingOnlyArrays(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(ctx, synthDirty(stats.NewRNG(0xB10C), 50))
	if err != nil {
		t.Fatal(err)
	}
	if ix.csr.Common != nil || ix.csr.ARCS != nil || ix.csr.EntropySum != nil {
		t.Error("co-occurrence statistics live on a query-only index")
	}
	if ix.csr.BlockCounts != nil {
		t.Error("BlockCounts live on a query-only index")
	}
	if ix.csr.Weights == nil || ix.csr.Offsets == nil {
		t.Error("serving arrays missing")
	}
	// Candidate serving needs none of the released arrays.
	if ix.AppendCandidates(nil, 0) == nil && ix.Threshold(0) != 0 {
		t.Error("no candidates for profile 0 but a live threshold")
	}
}

// TestInsertAfterBlockCountRelease pins the re-derivation seam: an
// index whose BlockCounts were released serves the exact same
// incremental state as one built with statistics kept end to end.
func TestInsertAfterBlockCountRelease(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(0x5EED)
	ds := synthDirty(rng, 50)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	released, err := p.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	if released.csr.BlockCounts != nil {
		t.Fatal("precondition: cold index should have released BlockCounts")
	}
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := p.indexBlocks(ctx, blocks, true)
	if err != nil {
		t.Fatal(err)
	}
	if kept.csr.BlockCounts == nil {
		t.Fatal("precondition: keepStats index should retain BlockCounts")
	}

	profs := make([]model.Profile, 8)
	for i := range profs {
		profs[i] = synthProfile(rng, fmt.Sprintf("rel-%d", i))
	}
	for i := range profs {
		a, b := profs[i], profs[i]
		if _, err := released.Insert(ctx, &a); err != nil {
			t.Fatalf("released Insert(%d): %v", i, err)
		}
		if _, err := kept.Insert(ctx, &b); err != nil {
			t.Fatalf("kept Insert(%d): %v", i, err)
		}
	}
	assertSameIndex(t, "released vs kept", kept, released)
}

// allocatedBy returns the bytes fn allocated (cumulative, so unaffected
// by collections in between).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdPathsNeverMakeStatisticsArrays: the builds whose caller reads
// no co-occurrence statistics after the weights — a cold MetaBlock, a
// cold IndexBlocks, a partitioned shard's Export — weigh as they fill
// and never allocate Common/ARCS/EntropySum. A statistics-keeping fill
// alone allocates 32 bytes an entry (five arrays); these paths must stay
// under 20 with everything they make besides Neighbors + Weights (12),
// and the statistics-keeping index build must cost at least the 20 bytes
// an entry of the three arrays more than the cold one.
func TestColdPathsNeverMakeStatisticsArrays(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Workers = 1
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := synthDirty(stats.NewRNG(0xA110C), 1200)
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	var cold, kept *Index
	coldBytes := allocatedBy(func() { cold, err = p.IndexBlocks(ctx, blocks) })
	if err != nil {
		t.Fatal(err)
	}
	entries := uint64(cold.csr.NumEntries())
	if entries < 100*uint64(cold.NumProfiles()) {
		t.Fatalf("precondition: %d entries over %d profiles — per-profile arrays would drown the per-entry ones", entries, cold.NumProfiles())
	}
	keptBytes := allocatedBy(func() { kept, err = p.indexBlocks(ctx, blocks, true) })
	if err != nil {
		t.Fatal(err)
	}
	if kept.csr.Common == nil {
		t.Fatal("precondition: keepStats index should retain the statistics")
	}
	runBytes := allocatedBy(func() { _, err = p.MetaBlock(ctx, blocks) })
	if err != nil {
		t.Fatal(err)
	}
	px := newPartIndex(blocks.Collection.Clone(), blocks.Schema, p.opt, 0, 1, shard.NewExchange(1))
	var snap *shard.Snapshot
	exportBytes := allocatedBy(func() { snap, err = px.Export(ctx) })
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(snap.Neighbors)) != entries {
		t.Fatalf("export holds %d entries, cold index %d", len(snap.Neighbors), entries)
	}
	for name, bytes := range map[string]uint64{"IndexBlocks": coldBytes, "MetaBlock": runBytes, "partIndex.Export": exportBytes} {
		if bytes >= 20*entries {
			t.Errorf("%s allocated %d bytes for %d entries (%.1f an entry), want under 20", name, bytes, entries, float64(bytes)/float64(entries))
		}
	}
	if keptBytes < coldBytes+20*entries {
		t.Errorf("statistics-keeping build allocated %d bytes, cold build %d: less than 20 an entry (%d entries) apart", keptBytes, coldBytes, entries)
	}
}
