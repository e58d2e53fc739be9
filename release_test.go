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
	"testing"

	"blast/internal/model"
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
