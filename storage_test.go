package blast

// Differential tests of the beyond-RAM storage layer: every observable
// of a file-backed (spilled) build — MetaBlock pairs, Index pairs,
// thresholds and candidates — must be byte-identical to the resident
// build at MemoryBudget 0, and a Server under a spilling pipeline to a cold
// resident build. Plus the spill-specific lifecycle contracts: the
// segments end with the build that wrote them (frozen, cancelled or
// failed on a read), and the writer's exports — an Index's re-freeze
// after an insert, every state of a Server — never spill.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/store"
	"blast/internal/weights"
)

// fileStorageOptions returns opt with a memory budget that makes the
// build spill from the first page.
func fileStorageOptions(opt Options) Options {
	opt.MemoryBudget = 1
	return opt
}

// TestStorageColdDifferentialMatrix extends the Scheme x Pruning matrix
// with a spill axis: a file-backed MetaBlock and IndexBlocks must
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
			label := fmt.Sprintf("%v/%v", scheme, pruning)
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
			if spill, loads := fileIx.spillBytes, fileIx.pageLoads; spill == 0 || loads == 0 {
				t.Fatalf("%s: file-backed build under MemoryBudget=1 reports %d spill bytes, %d page loads", label, spill, loads)
			}
			if spill, loads := memIx.spillBytes, memIx.pageLoads; spill != 0 || loads != 0 {
				t.Fatalf("%s: resident build reports %d spill bytes, %d page loads", label, spill, loads)
			}
			sameServed(t, label, memIx, fileIx)
		}
	}

	// The synthetic corpora above spill a few kilobytes, inside one page
	// of 64Ki entries at 12 B an entry; a datagen stream of 3000 profiles
	// spills megabytes, so every pass pages frames in and out.
	ds := StreamDataset(3000, 1)
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
	if spill, loads := fileIx.spillBytes, fileIx.pageLoads; spill <= 12<<16 || loads <= 1 {
		t.Fatalf("stream of 3000 profiles: file-backed build reports %d spill bytes, %d page loads; want more than one page", spill, loads)
	}
	sameServed(t, "stream of 3000 profiles", memIx, fileIx)
}

// TestStorageServerEquivalence runs the serving contract across shard
// counts under a spilling pipeline: the quiesced server must match a cold
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
			matchesCold(t, fmt.Sprintf("%s batch %d", label, batch), pMem, srv)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}

// TestStorageInsertMaterializes pins the mutation seam: an index frozen
// by a spilled build re-freezes resident after an insert — nothing of
// the build's storage is left to read back, and its spill counters say so —
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
	if fileIx.spillBytes == 0 {
		t.Fatal("file-backed build did not spill")
	}
	profs := make([]model.Profile, 9)
	for i := range profs {
		profs[i] = synthProfile(rng, fmt.Sprintf("ins-%d", i))
	}
	for i := range profs {
		if _, err := memIx.InsertAll(ctx, profs[i:i+1]); err != nil {
			t.Fatalf("mem InsertAll(%d): %v", i, err)
		}
		if _, err := fileIx.InsertAll(ctx, profs[i:i+1]); err != nil {
			t.Fatalf("file InsertAll(%d): %v", i, err)
		}
	}
	sameServed(t, "post-insert", memIx, fileIx)
	if spill, loads := fileIx.spillBytes, fileIx.pageLoads; spill != 0 || loads != 0 {
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
	if ix.spillBytes == 0 {
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
				sameServed(t, fmt.Sprintf("segments corrupted at poll %d, unread", after), clean, ix)
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

// TestServeNeverSpills: Options.MemoryBudget stops at the cold builds. Every
// state of a Server is a writer export, built resident, so a server over
// a pipeline that would spill from the first entry into a SpillDir that
// does not exist serves at one and two parties, durable or not, leaves
// no Dir/spill behind, and once quiesced equals a cold resident
// IndexBlocks over the union collection.
func TestServeNeverSpills(t *testing.T) {
	ctx := context.Background()
	pMem, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fileOpt := fileStorageOptions(DefaultOptions())
	fileOpt.SpillDir = filepath.Join(t.TempDir(), "absent")
	pFile, err := NewPipeline(fileOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		for _, durable := range []bool{false, true} {
			label := fmt.Sprintf("shards=%d durable=%v", shards, durable)
			sopt := ServerOptions{Shards: shards, SwapOps: 4}
			if durable {
				sopt.Dir = t.TempDir()
			}
			srv, err := pFile.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatalf("%s: Serve: %v", label, err)
			}
			durInsert(t, srv, 0, 3)
			matchesCold(t, label, pMem, srv)
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
			if durable {
				if _, err := os.Stat(filepath.Join(sopt.Dir, "spill")); !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("%s: durable dir holds a spill directory (stat: %v)", label, err)
				}
			}
		}
	}
	if _, err := os.Stat(fileOpt.SpillDir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a server created its SpillDir (stat: %v)", err)
	}
}

// TestDurableReopensStorageManifest: a durable directory whose manifest
// pins a storage mode, as earlier releases wrote it for a spilled build
// (with a Dir/spill beside it), reopens under the default options and
// adopts its snapshot: the storage field is ignored, and a leftover
// spill directory is never read.
func TestDurableReopensStorageManifest(t *testing.T) {
	ctx := context.Background()
	events := map[string]int{}
	opt := DefaultOptions()
	opt.Progress = func(phase string, _ time.Duration) { events[phase]++ }
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sopt := ServerOptions{Shards: 2, SwapOps: 2, Dir: dir, SyncEvery: 1}
	srv, err := p.Serve(ctx, durDataset(), sopt)
	if err != nil {
		t.Fatal(err)
	}
	durInsert(t, srv, 0, 2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m durManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	old, err := json.MarshalIndent(struct {
		durManifest
		Storage string `json:"storage"`
	}{m, "file"}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(old, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "spill", "leftover"), 0o755); err != nil {
		t.Fatal(err)
	}
	clear(events)
	srv, err = p.Serve(ctx, durDataset(), sopt)
	if err != nil {
		t.Fatalf("reopen of a manifest with %s: %v", old, err)
	}
	if events["index"] != 0 {
		t.Errorf("reopen rebuilt instead of adopting its snapshot: stages %v", events)
	}
	checkRecovered(t, "storage-manifest reopen", p, srv, 2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStorageOptionValidation pins the configuration surface: the
// invalid combinations are rejected with descriptive errors at
// NewPipeline.
func TestStorageOptionValidation(t *testing.T) {
	reject := func(label string, mutate func(*Options)) {
		t.Helper()
		opt := DefaultOptions()
		mutate(&opt)
		if _, err := NewPipeline(opt); err == nil {
			t.Errorf("%s: invalid storage configuration accepted", label)
		}
	}
	// A positive budget needs nothing beside itself, and a spill
	// directory needs only the budget.
	spill := DefaultOptions()
	spill.MemoryBudget = 1 << 20
	if _, err := NewPipeline(spill); err != nil {
		t.Errorf("MemoryBudget under DefaultOptions rejected: %v", err)
	}
	spill.SpillDir = "x"
	if _, err := NewPipeline(spill); err != nil {
		t.Errorf("SpillDir with a positive MemoryBudget rejected: %v", err)
	}
	reject("negative budget", func(o *Options) {
		o.MemoryBudget = -1
	})
	reject("spill dir without a budget", func(o *Options) {
		o.SpillDir = "x"
	})
}
