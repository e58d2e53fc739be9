package experiments

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"blast"
	"blast/internal/datasets"
	"blast/internal/model"
)

// incrementalHoldout picks how many profiles of the streamed source to
// hold out: a tenth, clamped to [16, 400].
func incrementalHoldout(sourceLen int) int {
	h := sourceLen / 10
	if h < 16 {
		h = 16
	}
	if h > 400 {
		h = 400
	}
	if h >= sourceLen {
		h = sourceLen / 2
	}
	return h
}

// splitStream cuts a holdout tail off a dataset for streaming inserts:
// for dirty datasets the tail of E1, for clean-clean the tail of E2 (new
// entities arriving against a fixed reference collection). Returns the
// truncated base dataset and the held-out profiles in arrival order.
func splitStream(full *model.Dataset) (*model.Dataset, []model.Profile) {
	if full.Kind == model.CleanClean {
		h := incrementalHoldout(full.E2.Len())
		cut := full.E2.Len() - h
		base := &model.Dataset{
			Name: full.Name, Kind: model.CleanClean,
			E1:    full.E1,
			E2:    &model.Collection{Name: full.E2.Name, Profiles: full.E2.Profiles[:cut]},
			Truth: model.NewGroundTruth(),
		}
		return base, full.E2.Profiles[cut:]
	}
	h := incrementalHoldout(full.E1.Len())
	cut := full.E1.Len() - h
	base := &model.Dataset{
		Name: full.Name, Kind: model.Dirty,
		E1:    &model.Collection{Name: full.E1.Name, Profiles: full.E1.Profiles[:cut]},
		Truth: model.NewGroundTruth(),
	}
	return base, full.E1.Profiles[cut:]
}

// insertBatches feeds profiles to insert in batches of n.
func insertBatches(t *testing.T, label string, profiles []model.Profile, n int, insert func(context.Context, []model.Profile) ([]int, error)) {
	t.Helper()
	for off := 0; off < len(profiles); off += n {
		if _, err := insert(context.Background(), profiles[off:min(off+n, len(profiles))]); err != nil {
			t.Fatalf("%s: InsertAll at %d: %v", label, off, err)
		}
	}
}

// TestStreamedInsertsMatchColdRebuild streams every registry dataset's
// held-out tail (splitStream), one profile at a time and in batches of
// 16, into an Index and into a Server at 1, 2 and 4 shards, and holds
// both to a cold IndexBlocks over the grown collection: the Index in
// Pairs, Candidates and Threshold, the quiesced Server in Pairs. On
// census a durable Server streams the tail too, closes and reopens —
// once adopting its snapshots, once replaying the whole WAL — and must
// answer the Pairs it answered before the close.
func TestStreamedInsertsMatchColdRebuild(t *testing.T) {
	ctx := context.Background()
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range datasets.AllNames() {
		full, err := tiny().load(name)
		if err != nil {
			t.Fatal(err)
		}
		base, stream := splitStream(full)
		sch, err := p.InduceSchema(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := p.Block(ctx, base, sch)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 16} {
			label := fmt.Sprintf("%s/batch=%d", name, batch)
			ix, err := p.BuildIndex(ctx, base)
			if err != nil {
				t.Fatalf("%s: BuildIndex: %v", label, err)
			}
			insertBatches(t, label, stream, batch, ix.InsertAll)
			cold, err := p.IndexBlocks(ctx, &blast.Blocks{Collection: ix.Blocks().Clone(), Schema: ix.Schema()})
			if err != nil {
				t.Fatalf("%s: cold IndexBlocks: %v", label, err)
			}
			if got, want := ix.Pairs(), cold.Pairs(); !slices.Equal(got, want) {
				t.Fatalf("%s: %d pairs after inserts, cold rebuild %d", label, len(got), len(want))
			}
			var got, want []blast.Candidate
			for i := 0; i < cold.NumProfiles(); i++ {
				if g, w := ix.Threshold(i), cold.Threshold(i); g != w {
					t.Fatalf("%s: Threshold(%d) = %v, cold rebuild %v", label, i, g, w)
				}
				got, want = ix.AppendCandidates(got[:0], i), cold.AppendCandidates(want[:0], i)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Candidates(%d) = %v, cold rebuild %v", label, i, got, want)
				}
			}

			for _, shards := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/shards=%d", label, shards)
				srv, err := p.ServeBlocks(ctx, blocks, blast.ServerOptions{Shards: shards, SwapOps: 64})
				if err != nil {
					t.Fatalf("%s: ServeBlocks: %v", label, err)
				}
				insertBatches(t, label, stream, batch, srv.InsertAll)
				if err := srv.Quiesce(ctx); err != nil {
					t.Fatalf("%s: Quiesce: %v", label, err)
				}
				got, err := srv.Pairs(ctx)
				if err != nil {
					t.Fatalf("%s: Pairs: %v", label, err)
				}
				if err := srv.Close(); err != nil {
					t.Fatalf("%s: Close: %v", label, err)
				}
				if want := cold.Pairs(); !slices.Equal(got, want) {
					t.Fatalf("%s: %d pairs after Quiesce, cold rebuild %d", label, len(got), len(want))
				}
			}
			if name == "census" {
				for _, snapEvery := range []int{2, -1} {
					checkDurableReopen(t, fmt.Sprintf("%s/snapshot-every=%d", label, snapEvery), p, blocks, stream, batch, snapEvery)
				}
			}
		}
	}
}

// checkDurableReopen streams profiles in batches of n into a durable
// 2-shard server, closes it and reopens its directory: the recovered
// server must answer the Pairs the closed one answered.
func checkDurableReopen(t *testing.T, label string, p *blast.Pipeline, blocks *blast.Blocks, stream []model.Profile, n, snapEvery int) {
	t.Helper()
	ctx := context.Background()
	sopt := blast.ServerOptions{Shards: 2, SwapOps: 64, Dir: t.TempDir(), SyncEvery: 1, SnapshotEvery: snapEvery}
	srv, err := p.ServeBlocks(ctx, blocks, sopt)
	if err != nil {
		t.Fatalf("%s: ServeBlocks: %v", label, err)
	}
	insertBatches(t, label, stream, n, srv.InsertAll)
	if err := srv.Quiesce(ctx); err != nil {
		t.Fatalf("%s: Quiesce: %v", label, err)
	}
	want, err := srv.Pairs(ctx)
	if err != nil {
		t.Fatalf("%s: Pairs: %v", label, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("%s: Close: %v", label, err)
	}
	reopened, err := p.ServeBlocks(ctx, blocks, sopt)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer reopened.Close()
	got, err := reopened.Pairs(ctx)
	if err != nil {
		t.Fatalf("%s: reopened Pairs: %v", label, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: reopened server answers %d pairs, %d before the close", label, len(got), len(want))
	}
}
