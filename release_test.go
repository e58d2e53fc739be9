package blast

// Regression tests for the footprint contract of the frozen form: an
// index — fresh, or re-frozen after inserts — a partitioned shard's
// export and a decoded snapshot hold the rows of what pruning retained
// and nothing of the blocking graph they were pruned from. The layout
// is pinned by what it weighs and what it allocates, not by which fields
// are set.

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
	before := liveHeap()
	v := build()
	return v, liveHeap() - before
}

// liveHeap is the heap in use after a full collection (two cycles, so
// that what the first one's finalizers and pools released is gone too).
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
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
// was; so does a server writer's freeze by two parties and a snapshot
// decoded from disk. Lookups on it allocate nothing into a sized buffer.
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

	w := newWriter(blocks.Collection.Clone(), blocks.Schema, p.opt, 2)
	snap, held := liveHeapOf(func() *shard.Snapshot {
		snap, err := w.Export(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	})
	if len(snap.Neighbors) != entries {
		t.Fatalf("export holds %d entries, frozen index %d", len(snap.Neighbors), entries)
	}
	if held > bound(entries, np) {
		t.Errorf("writer.Export result holds %d bytes, want at most %d", held, bound(entries, np))
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

// TestInsertAfterBlockCountRelease pins the index an insert batch
// leaves behind: after InsertAll and one read it is its rows again —
// beside what the batch added to its collection it holds no more than a
// frozen index, 16 bytes a retained entry and 24 a profile — and a lookup
// into a sized buffer allocates nothing.
func TestInsertAfterBlockCountRelease(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Workers = 1
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	blocks := footprintCorpus(t, p)
	rng := stats.NewRNG(0x5EED)
	batch := make([]model.Profile, 16)
	for i := range batch {
		batch[i] = synthProfile(rng, fmt.Sprintf("rel-%d", i))
	}
	ix, err := p.IndexBlocks(ctx, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.InsertAll(ctx, batch); err != nil {
		t.Fatal(err)
	}
	entries, np := 2*ix.NumRetained(), ix.NumProfiles() // the read folds the batch in
	buf := make([]Candidate, 0, np)
	for _, u := range []int{0, np - 1} {
		if allocs := testing.AllocsPerRun(100, func() { buf = ix.AppendCandidates(buf[:0], u) }); allocs != 0 {
			t.Errorf("AppendCandidates(%d) after an insert allocates %.0f times a lookup into a sized buffer", u, allocs)
		}
	}
	// What the index holds beside its grown collection: the live heap
	// with the index, less the live heap with its collection alone.
	c := ix.Blocks()
	with := liveHeap()
	edges := ix.NumEdges()
	runtime.KeepAlive(ix)
	held := with - liveHeap()
	runtime.KeepAlive(c)
	if bound := 16*int64(entries) + 24*int64(np); held > bound {
		t.Errorf("index after an insert batch and a read holds %d bytes beside its collection; %d retained entries over %d profiles allow %d (the graph had %d entries)",
			held, entries, np, bound, 2*edges)
	}
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
// cold IndexBlocks, a server writer's freeze by two parties — weigh as they fill
// and never allocate Common/ARCS/EntropySum, nor a per-entry retention
// mask. A statistics-keeping fill alone allocates 32 bytes an entry
// (five arrays); these paths must stay under 20 with everything they
// make besides Neighbors + Weights (12).
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
	runBytes := allocatedBy(func() { _, err = p.MetaBlock(ctx, blocks) })
	if err != nil {
		t.Fatal(err)
	}
	w := newWriter(blocks.Collection.Clone(), blocks.Schema, p.opt, 2)
	var snap *shard.Snapshot
	exportBytes := allocatedBy(func() { snap, err = w.Export(ctx) })
	if err != nil {
		t.Fatal(err)
	}
	if 2*uint64(snap.NumEdges) != entries {
		t.Fatalf("export weighed %d entries, cold index %d", 2*snap.NumEdges, entries)
	}
	for name, bytes := range map[string]uint64{"IndexBlocks": coldBytes, "MetaBlock": runBytes, "writer.Export": exportBytes} {
		if bytes >= 20*entries {
			t.Errorf("%s allocated %d bytes for %d entries (%.1f an entry), want under 20", name, bytes, entries, float64(bytes)/float64(entries))
		}
	}
}
