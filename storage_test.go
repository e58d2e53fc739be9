package blast

// Differential tests of the beyond-RAM storage layer: every observable
// of a file-backed (spilled) build — MetaBlock pairs, Index pairs,
// thresholds and candidates, quiesced Server state under both
// topologies, durable recovery — must be byte-identical to the
// resident StorageMemory build. Plus the spill-specific lifecycle
// contracts: the segments end with the build that wrote them (frozen,
// cancelled or failed on a read), the re-freeze after an insert builds
// resident, and the manifest storage pin.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blast/internal/datasets"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/store"
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
			// The file-backed build went through segment files and read
			// them back; the resident one never touched the disk. Neither
			// holds anything but rows now.
			if spill, loads := fileIx.StorageStats(); spill == 0 || loads == 0 {
				t.Fatalf("%s: file-backed build under MemoryBudget=1 reports %d spill bytes, %d page loads", label, spill, loads)
			}
			if spill, loads := memIx.StorageStats(); spill != 0 || loads != 0 {
				t.Fatalf("%s: resident build reports %d spill bytes, %d page loads", label, spill, loads)
			}
			assertSameIndex(t, label, memIx, fileIx)
		}
	}

	// The synthetic corpora above spill a few kilobytes, inside one page
	// of 64Ki entries at 12 B an entry; a datagen stream of 3000 profiles
	// spills megabytes, so every pass pages frames in and out.
	ds := datasets.NewStream(3000, 1).Dataset()
	pMem, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pFile, err := NewPipeline(fileStorageOptions(DefaultOptions()))
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
	if spill, loads := fileIx.StorageStats(); spill <= 12<<16 || loads <= 1 {
		t.Fatalf("stream of 3000 profiles: file-backed build reports %d spill bytes, %d page loads; want more than one page", spill, loads)
	}
	assertSameIndex(t, "stream of 3000 profiles", memIx, fileIx)
}

// TestStorageServerEquivalence runs the serving contract across shard
// counts under file storage: the quiesced server must match a cold
// *resident* IndexBlocks over the union collection — cross-storage
// byte-equality on the full serving path.
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
	for _, shards := range []int{1, 2, 4} {
		label := fmt.Sprintf("shards=%d", shards)
		rng := stats.NewRNG(uint64(shards)*0xC0FFEE + 1)
		ds := synthDirty(rng, 50)
		srv, err := pFile.Serve(ctx, ds, ServerOptions{Shards: shards, SwapOps: 4})
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

// TestStorageInsertMaterializes pins the mutation seam: an index frozen
// by a spilled build re-freezes resident after an insert — nothing of
// the build's storage is left to read back, and StorageStats says so —
// and stays byte-identical to a resident index fed the same sequence.
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
	if spill, _ := fileIx.StorageStats(); spill == 0 {
		t.Fatal("file-backed build did not spill")
	}
	profs := make([]model.Profile, 9)
	for i := range profs {
		profs[i] = synthProfile(rng, fmt.Sprintf("ins-%d", i))
	}
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
	assertSameIndex(t, "post-insert", memIx, fileIx)
	if spill, loads := fileIx.StorageStats(); spill != 0 || loads != 0 {
		t.Errorf("re-freeze after inserts spilled: %d bytes, %d page loads", spill, loads)
	}
}

// TestStorageSpillDirLifecycle checks segment hygiene: a spilled build
// creates its segments under SpillDir — one that does not exist fails
// the build — and has removed them by the time IndexBlocks returns: the
// frozen index serves from resident rows.
func TestStorageSpillDirLifecycle(t *testing.T) {
	ctx := context.Background()
	spill := t.TempDir()
	opt := fileStorageOptions(DefaultOptions())
	opt.SpillDir = spill
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := synthDirty(stats.NewRNG(0xABCD), 50)
	ix, err := p.BuildIndex(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	if spillBytes, _ := ix.StorageStats(); spillBytes == 0 {
		t.Fatal("index build did not spill")
	}
	entries, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill segments outlived the build that wrote them: %v", entries)
	}

	opt.SpillDir = filepath.Join(spill, "absent")
	if p, err = NewPipeline(opt); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BuildIndex(ctx, ds); err == nil {
		t.Fatal("build spilled somewhere other than the SpillDir it was given")
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

// faultCtx never cancels: its after-th poll flips one payload byte in
// the first frame of every segment file then under dir, so a build
// driven by it meets a page that fails its checksum wherever it next
// reads one back.
type faultCtx struct {
	context.Context
	dir   string
	after int64
	polls atomic.Int64
}

func (c *faultCtx) Err() error {
	if c.polls.Add(1) != c.after {
		return nil
	}
	segs, _ := filepath.Glob(filepath.Join(c.dir, "*", "*.seg"))
	for _, seg := range segs {
		f, err := os.OpenFile(seg, os.O_RDWR, 0)
		if err != nil {
			continue // already deleted by the build
		}
		var b [1]byte
		off := int64(len(store.Magic) + store.FrameHeaderSize + 8)
		if _, err := f.ReadAt(b[:], off); err == nil {
			b[0] ^= 0xff
			f.WriteAt(b[:], off)
		}
		f.Close()
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
// Phase 3, at the granularity of the entries it weighs and prunes. The
// same sweep then corrupts the segments at every poll instead: a freeze
// that reads a bad page back fails closed on the graph's sticky read
// error — named, no index — and deletes its segments all the same.
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
			_, err := p.IndexBlocks(ctx, blocks)
			return err
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
		if name != "IndexBlocks" {
			continue
		}
		clean, err := p.IndexBlocks(bg, blocks)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for after := int64(1); after <= polls; after++ {
			ix, err := p.IndexBlocks(&faultCtx{Context: bg, dir: spill, after: after}, blocks)
			switch {
			case err == nil:
				// The flip landed where no pass read it back: every page
				// that was read checked out, so the index is the clean one.
				assertSameIndex(t, fmt.Sprintf("segments corrupted at poll %d, unread", after), clean, ix)
			case errors.Is(err, store.ErrCorruptSegment) && ix == nil:
				failed++
			default:
				t.Fatalf("IndexBlocks over segments corrupted at poll %d of %d: %v, want ErrCorruptSegment or success", after, polls, err)
			}
			if left, err := os.ReadDir(spill); err != nil || len(left) != 0 {
				t.Fatalf("IndexBlocks over segments corrupted at poll %d left %d entries in the spill directory (%v)", after, len(left), err)
			}
		}
		if failed == 0 {
			t.Fatalf("no corruption in %d polls reached a page the freeze read back", polls)
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
