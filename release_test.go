package blast

// Regression tests for the footprint contract of the frozen form: a
// query-only index, a partitioned shard's export and a decoded snapshot
// hold the rows of what pruning retained and nothing of the blocking
// graph they were pruned from, while Insert transparently re-derives
// everything the mutation path needs. The layout is pinned by what it
// weighs and what it allocates, not by which fields are set.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
)

// liveHeapOf returns what build made and the live heap it holds: the
// heap in use after a collection with the result reachable, over the
// same reading before build ran. Whatever build's inputs keep alive is
// in both readings and cancels out.
func liveHeapOf[T any](build func() T) (T, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return v, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// footprintCorpus is a Blocks artifact dense enough that the blocking
// graph outweighs every per-profile array a hundred times.
func footprintCorpus(t *testing.T, p *Pipeline) *Blocks {
	t.Helper()
	ctx := context.Background()
	ds := synthDirty(stats.NewRNG(0xA110C), 1200)
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// TestIndexReleasesServingOnlyArrays pins the frozen footprint: beside
// its collection, a query-only index holds 12 bytes a retained entry and
// 16 a profile — bounded here at 16 and 24 — however large the graph
// was; so does a partitioned shard's export and a snapshot decoded from
// disk. Lookups on it allocate nothing into a sized buffer.
func TestIndexReleasesServingOnlyArrays(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Workers = 1
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	blocks := footprintCorpus(t, p)
	bound := func(entries, profiles int) int64 { return 16*int64(entries) + 24*int64(profiles) }

	ix, held := liveHeapOf(func() *Index {
		ix, err := p.IndexBlocks(ctx, blocks)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	})
	entries, np := 2*ix.NumRetained(), ix.NumProfiles()
	if ix.NumRetained() == 0 || ix.NumEdges() < 50*np {
		t.Fatalf("precondition: %d pairs retained of %d edges over %d profiles", ix.NumRetained(), ix.NumEdges(), np)
	}
	if held > bound(entries, np) {
		t.Errorf("frozen index holds %d bytes beside its collection; %d retained entries over %d profiles allow %d (the graph had %d entries)",
			held, entries, np, bound(entries, np), 2*ix.NumEdges())
	}

	px := newPartIndex(blocks.Collection.Clone(), blocks.Schema, p.opt, 0, 1, shard.NewExchange(1))
	snap, held := liveHeapOf(func() *shard.Snapshot {
		snap, err := px.Export(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	})
	if len(snap.Neighbors) != entries {
		t.Fatalf("export holds %d entries, frozen index %d", len(snap.Neighbors), entries)
	}
	if held > bound(entries, np) {
		t.Errorf("partIndex.Export result holds %d bytes, want at most %d", held, bound(entries, np))
	}

	blob := shard.EncodeSnapshot(snap)
	decoded, held := liveHeapOf(func() *shard.Snapshot {
		s, err := shard.DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	if held > bound(entries, np) {
		t.Errorf("decoded snapshot holds %d bytes, want at most %d", held, bound(entries, np))
	}
	runtime.KeepAlive(blob)

	busiest := 0
	for u := 0; u < np; u++ {
		if len(ix.Candidates(u)) > len(ix.Candidates(busiest)) {
			busiest = u
		}
	}
	buf := make([]Candidate, 0, len(ix.Candidates(busiest)))
	for name, lookup := range map[string]func(){
		"Index":    func() { buf = ix.AppendCandidates(buf[:0], busiest) },
		"Snapshot": func() { buf = decoded.AppendCandidates(buf[:0], busiest) },
	} {
		if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
			t.Errorf("%s.AppendCandidates allocates %.0f times a lookup into a sized buffer", name, allocs)
		}
	}
}

// TestInsertAfterBlockCountRelease pins the re-derivation seam: an
// index frozen to its rows serves, from its first Insert on, the exact
// incremental state of one built as a writer — with the whole weighted
// graph and its statistics — end to end.
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
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := writerIndex(ctx, p, blocks)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, "frozen vs writer, before any insert", kept, released)

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
		assertSameIndex(t, fmt.Sprintf("frozen vs writer, insert %d", i), kept, released)
	}
	var buf []Candidate
	buf = released.AppendCandidates(buf, 0)
	if allocs := testing.AllocsPerRun(100, func() { buf = released.AppendCandidates(buf[:0], 0) }); allocs != 0 {
		t.Errorf("AppendCandidates after Insert allocates %.0f times a lookup into a sized buffer", allocs)
	}
}

// writerIndex builds blocks straight into the writer's form — the whole
// weighted graph with its statistics and retention mask — which an
// IndexBlocks index re-derives on its first Insert.
func writerIndex(ctx context.Context, p *Pipeline, blocks *Blocks) (*Index, error) {
	c := blocks.Collection
	ix := &Index{kind: c.Kind, collection: c, schema: blocks.Schema, opt: p.opt}
	return ix, ix.thaw(ctx, c)
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
// and never allocate Common/ARCS/EntropySum, nor a per-entry retention
// mask. A statistics-keeping fill alone allocates 32 bytes an entry
// (five arrays); these paths must stay under 20 with everything they
// make besides Neighbors + Weights (12), and the writer's build must
// cost at least the 20 bytes an entry of the three arrays more than the
// cold one.
func TestColdPathsNeverMakeStatisticsArrays(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Workers = 1
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	blocks := footprintCorpus(t, p)
	var cold *Index
	coldBytes := allocatedBy(func() { cold, err = p.IndexBlocks(ctx, blocks) })
	if err != nil {
		t.Fatal(err)
	}
	entries := 2 * uint64(cold.NumEdges())
	if entries < 100*uint64(cold.NumProfiles()) {
		t.Fatalf("precondition: %d entries over %d profiles — per-profile arrays would drown the per-entry ones", entries, cold.NumProfiles())
	}
	keptBytes := allocatedBy(func() { _, err = writerIndex(ctx, p, blocks) })
	if err != nil {
		t.Fatal(err)
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
	if 2*uint64(snap.NumEdges) != entries {
		t.Fatalf("export weighed %d entries, cold index %d", 2*snap.NumEdges, entries)
	}
	for name, bytes := range map[string]uint64{"IndexBlocks": coldBytes, "MetaBlock": runBytes, "partIndex.Export": exportBytes} {
		if bytes >= 20*entries {
			t.Errorf("%s allocated %d bytes for %d entries (%.1f an entry), want under 20", name, bytes, entries, float64(bytes)/float64(entries))
		}
	}
	if keptBytes < coldBytes+20*entries {
		t.Errorf("writer's build allocated %d bytes, cold build %d: less than 20 an entry (%d entries) apart", keptBytes, coldBytes, entries)
	}
}
