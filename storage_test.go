package blast

// Differential tests of the beyond-RAM storage layer: every observable
// of a file-backed (spilled) build — MetaBlock pairs, Index pairs,
// thresholds and candidates, quiesced Server state under both
// topologies, durable recovery — must be byte-identical to the
// resident StorageMemory build. Plus the spill-specific lifecycle
// contracts: segment cleanup on Close, materialization on first
// mutation, and the manifest storage pin.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// fileStorageOptions returns opt flipped to file storage with a budget
// that forces the build to spill from the first page.
func fileStorageOptions(opt Options) Options {
	opt.Storage = StorageFile
	opt.MemoryBudget = 1
	return opt
}

// assertSameIndex asserts every serving observable of got matches want.
func assertSameIndex(t *testing.T, label string, want, got *Index) {
	t.Helper()
	if want.NumProfiles() != got.NumProfiles() {
		t.Fatalf("%s: NumProfiles = %d, want %d", label, got.NumProfiles(), want.NumProfiles())
	}
	assertSamePairs(t, label+" pairs", want.Pairs(), got.Pairs())
	var wantC, gotC []Candidate
	for i := 0; i < want.NumProfiles(); i++ {
		if ww, gw := want.Threshold(i), got.Threshold(i); ww != gw {
			t.Fatalf("%s: Threshold(%d) = %v, want %v", label, i, gw, ww)
		}
		wantC = want.AppendCandidates(wantC[:0], i)
		gotC = got.AppendCandidates(gotC[:0], i)
		if len(wantC) != len(gotC) {
			t.Fatalf("%s: Candidates(%d): %d, want %d", label, i, len(gotC), len(wantC))
		}
		for k := range wantC {
			if wantC[k] != gotC[k] {
				t.Fatalf("%s: Candidates(%d)[%d] = %+v, want %+v", label, i, k, gotC[k], wantC[k])
			}
		}
	}
}

// TestStorageColdDifferentialMatrix extends the Scheme x Pruning matrix
// with the Storage axis: a file-backed MetaBlock and IndexBlocks must
// be byte-identical to the resident build for every configuration.
func TestStorageColdDifferentialMatrix(t *testing.T) {
	ctx := context.Background()
	schemes := []weights.Scheme{
		{Kind: weights.ChiSquared, Entropy: true},
		{Kind: weights.CBS},
		{Kind: weights.ECBS},
		{Kind: weights.JS},
		{Kind: weights.EJS},
		{Kind: weights.ARCS, Entropy: true},
	}
	prunings := []metablocking.Pruning{
		metablocking.WEP, metablocking.CEP, metablocking.WNP1,
		metablocking.WNP2, metablocking.CNP1, metablocking.CNP2,
		metablocking.BlastWNP,
	}
	cfg := 0
	for _, scheme := range schemes {
		for _, pruning := range prunings {
			cfg++
			label := fmt.Sprintf("%s/%v", scheme.Name(), pruning)
			rng := stats.NewRNG(uint64(cfg)*0x9E3779B9 + 3)
			ds := synthDirty(rng, 60)

			memOpt := DefaultOptions()
			memOpt.Scheme = scheme
			memOpt.Pruning = pruning
			pMem, err := NewPipeline(memOpt)
			if err != nil {
				t.Fatal(err)
			}
			pFile, err := NewPipeline(fileStorageOptions(memOpt))
			if err != nil {
				t.Fatal(err)
			}

			memRes, err := pMem.Run(ctx, ds)
			if err != nil {
				t.Fatalf("%s: mem Run: %v", label, err)
			}
			fileRes, err := pFile.Run(ctx, ds)
			if err != nil {
				t.Fatalf("%s: file Run: %v", label, err)
			}
			assertSamePairs(t, label+" MetaBlock", memRes.Pairs, fileRes.Pairs)

			memIx, err := pMem.BuildIndex(ctx, ds)
			if err != nil {
				t.Fatalf("%s: mem BuildIndex: %v", label, err)
			}
			fileIx, err := pFile.BuildIndex(ctx, ds)
			if err != nil {
				t.Fatalf("%s: file BuildIndex: %v", label, err)
			}
			if !fileIx.Spilled() {
				t.Fatalf("%s: file-backed index did not spill under MemoryBudget=1", label)
			}
			if memIx.Spilled() {
				t.Fatalf("%s: resident index reports spilled", label)
			}
			// The cold build read its pages through private cursors: the
			// page cache is untouched until the first lookup fills it.
			if _, cs, loads := fileIx.StorageStats(); cs.Bytes != 0 || cs.Hits+cs.Misses != 0 || loads == 0 {
				t.Fatalf("%s: after a cold build the cache holds %+v and %d frames were loaded; want an empty cache and some loads", label, cs, loads)
			}
			assertSameIndex(t, label, memIx, fileIx)
			if _, cs, _ := fileIx.StorageStats(); cs.Misses == 0 || cs.Bytes == 0 {
				t.Fatalf("%s: lookups did not go through the page cache: %+v", label, cs)
			}
			if err := fileIx.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		}
	}
}

// TestStorageServerEquivalence runs the serving contract across
// Topology x shard count under file storage: the quiesced server must
// match a cold *resident* IndexBlocks over the union collection —
// cross-storage byte-equality on the full serving path.
func TestStorageServerEquivalence(t *testing.T) {
	ctx := context.Background()
	memOpt := DefaultOptions()
	pMem, err := NewPipeline(memOpt)
	if err != nil {
		t.Fatal(err)
	}
	pFile, err := NewPipeline(fileStorageOptions(memOpt))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{TopologyReplicated, TopologyPartitioned} {
		for _, shards := range []int{1, 2, 4} {
			label := fmt.Sprintf("%v/shards=%d", topo, shards)
			rng := stats.NewRNG(uint64(shards)*0xC0FFEE + uint64(topo))
			ds := synthDirty(rng, 50)
			srv, err := pFile.Serve(ctx, ds, ServerOptions{
				Shards: shards, SwapOps: 4, Topology: topo,
			})
			if err != nil {
				t.Fatalf("%s: Serve: %v", label, err)
			}
			if got := srv.Storage(); got != StorageFile {
				t.Fatalf("%s: Storage() = %v, want %v", label, got, StorageFile)
			}
			for batch := 0; batch < 2; batch++ {
				profs := make([]model.Profile, 6)
				for i := range profs {
					profs[i] = synthProfile(rng, fmt.Sprintf("sp%d-%d", batch, i))
				}
				if _, err := srv.InsertAll(ctx, profs); err != nil {
					t.Fatalf("%s: InsertAll: %v", label, err)
				}
				// The cold reference build is resident: the equivalence check
				// crosses the storage axis, not just the serving machinery.
				checkServerEquivalence(t, fmt.Sprintf("%s batch %d", label, batch), pMem, srv)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		}
	}
}

// TestStorageInsertMaterializes pins the mutation seam: the first
// Insert into a spilled index materializes it back to resident storage
// and the incremental state stays byte-identical to a resident index
// fed the same sequence.
func TestStorageInsertMaterializes(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(0xFEED)
	ds := synthDirty(rng, 50)
	memOpt := DefaultOptions()
	pMem, err := NewPipeline(memOpt)
	if err != nil {
		t.Fatal(err)
	}
	pFile, err := NewPipeline(fileStorageOptions(memOpt))
	if err != nil {
		t.Fatal(err)
	}
	memIx, err := pMem.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	fileIx, err := pFile.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !fileIx.Spilled() {
		t.Fatal("file-backed index did not spill")
	}
	profs := make([]model.Profile, 9)
	for i := range profs {
		profs[i] = synthProfile(rng, fmt.Sprintf("ins-%d", i))
	}
	insRNG := stats.NewRNG(0xFEED) // regenerate the same profiles for the mem twin
	_ = insRNG
	for i := range profs {
		p := profs[i]
		if _, err := memIx.Insert(ctx, &p); err != nil {
			t.Fatalf("mem Insert(%d): %v", i, err)
		}
		q := profs[i]
		if _, err := fileIx.Insert(ctx, &q); err != nil {
			t.Fatalf("file Insert(%d): %v", i, err)
		}
	}
	if fileIx.Spilled() {
		t.Fatal("index still spilled after Insert: the mutation seam must materialize")
	}
	assertSameIndex(t, "post-insert", memIx, fileIx)
	if err := fileIx.Close(); err != nil {
		t.Fatalf("Close after materialization: %v", err)
	}
}

// TestStorageSpillDirLifecycle checks segment hygiene: a spilled index
// creates its segments under SpillDir and Close removes them.
func TestStorageSpillDirLifecycle(t *testing.T) {
	ctx := context.Background()
	spill := t.TempDir()
	opt := fileStorageOptions(DefaultOptions())
	opt.SpillDir = spill
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(ctx, synthDirty(stats.NewRNG(0xABCD), 50))
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Spilled() {
		t.Fatal("index did not spill")
	}
	entries, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no spill subdirectory created under SpillDir")
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	entries, err = os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill segments leaked after Close: %v", entries)
	}
}

// tripCtx reports context.Canceled from its after-th Err call onwards.
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

// TestStorageCancelledBuildLeavesNoSegments trips every cancellation
// poll of a file-backed IndexBlocks and MetaBlock in turn — the spill
// build, the paged weighting kernel, every pruning pass, the freeze —
// and checks each cancelled run returns context.Canceled through the
// exits that close the spilled graph: no segment file, spill directory
// or goroutine is left behind. MetaBlock under DefaultOptions goes
// through the same sweep: the default pipeline is cancellable inside
// Phase 3, at the granularity of the entries it weighs and prunes.
func TestStorageCancelledBuildLeavesNoSegments(t *testing.T) {
	spill := t.TempDir()
	opt := fileStorageOptions(DefaultOptions())
	opt.SpillDir = spill
	opt.Workers = 2
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	pDefault, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	ds := synthDirty(stats.NewRNG(0xC0FFEE), 150)
	sch, err := p.InduceSchema(bg, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(bg, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for name, run := range map[string]func(ctx context.Context) error{
		"IndexBlocks": func(ctx context.Context) error {
			ix, err := p.IndexBlocks(ctx, blocks)
			if err != nil {
				return err
			}
			return ix.Close()
		},
		"MetaBlock": func(ctx context.Context) error {
			_, err := p.MetaBlock(ctx, blocks)
			return err
		},
		"MetaBlock under DefaultOptions": func(ctx context.Context) error {
			_, err := pDefault.MetaBlock(ctx, blocks)
			return err
		},
	} {
		counter := &tripCtx{Context: bg, after: math.MaxInt64}
		if err := run(counter); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		polls := counter.polls.Load()
		if polls < 8 {
			t.Fatalf("%s polled %d times: too few to cover its phases", name, polls)
		}
		for after := int64(1); after <= polls; after++ {
			if err := run(&tripCtx{Context: bg, after: after}); err != context.Canceled {
				t.Fatalf("%s tripping at poll %d of %d: %v, want context.Canceled", name, after, polls, err)
			}
			if left, err := os.ReadDir(spill); err != nil || len(left) != 0 {
				t.Fatalf("%s cancelled at poll %d left %d entries in the spill directory (%v)", name, after, len(left), err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked by cancelled builds: %d > %d", n, before)
	}
}

// TestDurableStorageManifestPin: the durable manifest records the
// storage mode; reopening under the other mode fails closed, and the
// durable layer parks spill segments under Dir/spill by default.
func TestDurableStorageManifestPin(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fileOpt := fileStorageOptions(DefaultOptions())
	pFile, err := NewPipeline(fileOpt)
	if err != nil {
		t.Fatal(err)
	}
	memOpt := DefaultOptions()
	pMem, err := NewPipeline(memOpt)
	if err != nil {
		t.Fatal(err)
	}
	sopt := ServerOptions{Shards: 2, SwapOps: 2, Dir: dir, SyncEvery: 1}

	srv, err := pFile.Serve(ctx, durDataset(), sopt)
	if err != nil {
		t.Fatalf("durable Serve under file storage: %v", err)
	}
	if got := srv.Storage(); got != StorageFile {
		t.Fatalf("Storage() = %v, want %v", got, StorageFile)
	}
	if _, err := os.Stat(filepath.Join(dir, "spill")); err != nil {
		t.Fatalf("durable dir has no default spill directory: %v", err)
	}
	durInsert(t, srv, 0, 2)
	checkServerEquivalence(t, "durable-file", pMem, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), `"storage": "file"`) {
		t.Fatalf("manifest does not pin file storage:\n%s", manifest)
	}

	if _, err := pMem.Serve(ctx, durDataset(), sopt); err == nil {
		t.Error("file-storage directory reopened under memory storage")
	}
	srv2, err := pFile.Serve(ctx, durDataset(), sopt)
	if err != nil {
		t.Fatalf("reopen under the pinned storage: %v", err)
	}
	checkRecovered(t, "durable-file-reopen", pMem, srv2, 2)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	memDir := t.TempDir()
	memSopt := sopt
	memSopt.Dir = memDir
	srv3, err := pMem.Serve(ctx, durDataset(), memSopt)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pFile.Serve(ctx, durDataset(), memSopt); err == nil {
		t.Error("memory-storage directory reopened under file storage")
	}
}

// TestStorageOptionValidation pins the configuration surface: the
// storage enum round-trips through ParseStorage, and the invalid
// combinations are rejected with descriptive errors at NewPipeline.
func TestStorageOptionValidation(t *testing.T) {
	for _, s := range []Storage{StorageMemory, StorageFile} {
		got, err := ParseStorage(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStorage(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseStorage("tape"); err == nil {
		t.Error("ParseStorage accepted an unknown storage name")
	}

	reject := func(label string, mutate func(*Options)) {
		t.Helper()
		opt := DefaultOptions()
		mutate(&opt)
		if _, err := NewPipeline(opt); err == nil {
			t.Errorf("%s: invalid storage configuration accepted", label)
		}
	}
	// File storage needs nothing beside itself: the defaults validate.
	file := DefaultOptions()
	file.Storage = StorageFile
	if _, err := NewPipeline(file); err != nil {
		t.Errorf("StorageFile under DefaultOptions rejected: %v", err)
	}
	reject("budget without file storage", func(o *Options) {
		o.MemoryBudget = 1 << 20
	})
	reject("spill dir without file storage", func(o *Options) {
		o.SpillDir = "x"
	})
	reject("unknown storage", func(o *Options) {
		o.Storage = Storage(42)
	})
}
