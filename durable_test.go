package blast

// Differential tests of durable serving: a server reopened over a
// durable directory — after a clean close or after byte-level damage to
// its logs and snapshots — must serve exactly what a cold IndexBlocks
// over the recovered union collection serves, and the recovered prefix
// must be precisely the one the WAL semantics dictate. The SIGKILL
// variant of the same contract lives in crash_test.go.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/wal"
)

const durBatchSize = 3

// durBatchFor deterministically regenerates insert batch k, so a test
// (or the crash-test parent process) can reconstruct the exact insert
// sequence a server admitted without sharing state with it.
func durBatchFor(k int) []model.Profile {
	rng := stats.NewRNG(0xB10C + uint64(k)*2654435761)
	batch := make([]model.Profile, durBatchSize)
	for i := range batch {
		batch[i] = synthProfile(rng, fmt.Sprintf("d%d-%d", k, i))
	}
	return batch
}

// durDataset builds the deterministic seed dataset shared by the
// durable tests: same seed in, same blocks out, same manifest
// fingerprint across opens.
func durDataset() *model.Dataset {
	return synthDirty(stats.NewRNG(0xD00D), 40)
}

func durInsert(t *testing.T, srv *Server, from, to int) {
	t.Helper()
	ctx := context.Background()
	for k := from; k < to; k++ {
		ids, err := srv.InsertAll(ctx, durBatchFor(k))
		if err != nil {
			t.Fatalf("insert batch %d: %v", k, err)
		}
		if want := 40 + k*durBatchSize; ids[0] != want {
			t.Fatalf("batch %d ids start at %d, want %d", k, ids[0], want)
		}
	}
}

// durReferencePairs computes the expected Pairs of a server holding the
// seed plus the first nBatches insert batches, via an independent
// in-memory server.
func durReferencePairs(t *testing.T, p *Pipeline, nBatches int) []model.IDPair {
	t.Helper()
	ctx := context.Background()
	ref, err := p.Serve(ctx, durDataset(), ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	durInsert(t, ref, 0, nBatches)
	if err := ref.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	pairs, err := ref.Pairs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// checkRecovered asserts the full recovery contract: the reopened
// server admitted exactly wantBatches of the insert sequence, is
// internally equivalent to a cold rebuild over its union collection,
// and serves Pairs byte-identical to the independent reference.
func checkRecovered(t *testing.T, label string, p *Pipeline, srv *Server, wantBatches int) {
	t.Helper()
	if got, want := srv.Admitted(), 40+wantBatches*durBatchSize; got != want {
		t.Fatalf("%s: recovered %d admitted profiles, want %d (%d batches)", label, got, want, wantBatches)
	}
	checkServerEquivalence(t, label, p, srv)
	got, err := srv.Pairs(context.Background())
	if err != nil {
		t.Fatalf("%s: Pairs: %v", label, err)
	}
	assertSamePairs(t, label+" vs reference", durReferencePairs(t, p, wantBatches), got)
}

// checkEveryShard runs one subtest per shard, named shard<i>, asserting
// the reopened shard was cut back to the same surviving prefix: its
// published snapshot sits at wantBatches of the insert stream and covers
// exactly the profiles those batches admitted, with no error latched.
func checkEveryShard(t *testing.T, srv *Server, wantBatches int) {
	t.Helper()
	for i, sh := range srv.shards {
		t.Run(fmt.Sprintf("shard%d", i), func(t *testing.T) {
			if err := sh.Err(); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			snap := sh.Snapshot()
			if snap.Batches != int64(wantBatches) {
				t.Fatalf("shard %d published at batch %d, want %d", i, snap.Batches, wantBatches)
			}
			if got, want := snap.NumProfiles, 40+wantBatches*durBatchSize; got != want {
				t.Fatalf("shard %d published %d profiles, want %d", i, got, want)
			}
		})
	}
}

// reopenCase is one row of a durable reopen matrix; opt, when set,
// adjusts the pipeline options the case serves under.
type reopenCase struct {
	shards, snapEvery, syncEvery int
	opt                          func(*Options)
}

// runReopenMatrix runs open → stream → close → reopen, two generations
// deep, for every case, and checks the recovery contract at every step.
func runReopenMatrix(t *testing.T, prefix string, cases []reopenCase) {
	ctx := context.Background()
	for _, tc := range cases {
		label := fmt.Sprintf("%sshards=%d/snap=%d/sync=%d", prefix, tc.shards, tc.snapEvery, tc.syncEvery)
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			opt := DefaultOptions()
			if tc.opt != nil {
				tc.opt(&opt)
			}
			p, err := NewPipeline(opt)
			if err != nil {
				t.Fatal(err)
			}
			sopt := ServerOptions{
				Shards: tc.shards, SwapOps: 2,
				Dir: dir, SnapshotEvery: tc.snapEvery, SyncEvery: tc.syncEvery,
			}
			srv, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatal(err)
			}
			// A fresh durable server behaves exactly like the in-memory one.
			checkRecovered(t, label+"/fresh", p, srv, 0)
			durInsert(t, srv, 0, 3)
			checkServerEquivalence(t, label+"/streamed", p, srv)
			if err := srv.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			// Pairs still serves after Close, from the drained state.
			if _, err := srv.Pairs(ctx); err != nil {
				t.Fatalf("Pairs after Close: %v", err)
			}

			srv2, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkRecovered(t, label+"/gen1", p, srv2, 3)
			durInsert(t, srv2, 3, 5)
			checkServerEquivalence(t, label+"/gen1-streamed", p, srv2)
			if err := srv2.Close(); err != nil {
				t.Fatalf("close gen1: %v", err)
			}

			// Second generation: recovery over a directory that was itself
			// produced by a recovery (epoch continuation, snapshot pruning).
			srv3, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatalf("reopen gen2: %v", err)
			}
			checkRecovered(t, label+"/gen2", p, srv3, 5)
			if err := srv3.Close(); err != nil {
				t.Fatalf("close gen2: %v", err)
			}
		})
	}
}

// TestDurableReopenMatrix runs the reopen matrix under the default
// pipeline across shard counts and snapshot/sync policies. SnapshotEvery
// 1 lands reopens on the adoption path (a drained Close leaves every
// shard an at-cut snapshot); -1 forces the rebuild over the replayed
// WAL; 0 (default cadence 64) adopts what Close persisted — all must
// land on the identical state.
func TestDurableReopenMatrix(t *testing.T) {
	runReopenMatrix(t, "", []reopenCase{
		{shards: 1, snapEvery: 1, syncEvery: 1},
		{shards: 2, snapEvery: -1, syncEvery: 1},
		{shards: 3, snapEvery: 1, syncEvery: -1},
		{shards: 2, snapEvery: 0, syncEvery: 0},
	})
}

// TestDurableReopenBuildCount counts the index builds a reopen makes
// (Options.Progress "index" events) and every other stage it reports:
// adopting an at-cut snapshot set builds nothing, and a WAL-only image
// is rebuilt by exactly one frozen build over the recovered union
// collection. Recovery drives no Index through the log, so nothing is
// re-frozen along the way, and the recovered server still equals the
// cold rebuild.
func TestDurableReopenBuildCount(t *testing.T) {
	ctx := context.Background()
	events := map[string]int{}
	opt := DefaultOptions()
	opt.Progress = func(phase string, _ time.Duration) { events[phase]++ }
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := durDataset()
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 4
	for _, tc := range []struct {
		name      string
		snapEvery int
		builds    int
	}{
		{"adopt", 1, 0},
		{"wal-only", -1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sopt := ServerOptions{Shards: 2, SwapOps: 2, Dir: t.TempDir(), SnapshotEvery: tc.snapEvery, SyncEvery: 1}
			srv, err := p.ServeBlocks(ctx, blocks, sopt)
			if err != nil {
				t.Fatal(err)
			}
			durInsert(t, srv, 0, batches)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			clear(events)
			srv, err = p.ServeBlocks(ctx, blocks, sopt)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := events["index"]; got != tc.builds || len(events) > min(tc.builds, 1) {
				t.Errorf("reopen reported stages %v, want %d index build(s) and nothing else", events, tc.builds)
			}
			checkRecovered(t, tc.name, p, srv, batches)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// durOpen opens the durable server over dir with the canonical test
// policy (sync every batch, snapshot policy per snapEvery).
func durOpen(t *testing.T, p *Pipeline, dir string, shards, snapEvery int) (*Server, error) {
	t.Helper()
	return p.Serve(context.Background(), durDataset(), ServerOptions{
		Shards: shards, SwapOps: 2, Dir: dir, SnapshotEvery: snapEvery, SyncEvery: 1,
	})
}

// durSeedDir builds a closed durable directory holding nBatches.
func durSeedDir(t *testing.T, p *Pipeline, shards, snapEvery, nBatches int) string {
	t.Helper()
	dir := t.TempDir()
	srv, err := durOpen(t, p, dir, shards, snapEvery)
	if err != nil {
		t.Fatal(err)
	}
	durInsert(t, srv, 0, nBatches)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDurableTornWAL damages the log's tail at the byte level — partial
// final records, flipped bytes, wholesale truncation — and checks that
// recovery serves exactly the surviving batch prefix, never a torn or
// invented state, at one shard and at two, where a subtest per shard
// checks that shard was cut back to the prefix too.
func TestDurableTornWAL(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const batches = 4
	corruptions := []struct {
		name string
		// damage mutates the raw bytes of the log.
		damage func([]byte) []byte
		want   int // surviving batches
	}{
		{"truncate-1-byte", func(b []byte) []byte { return b[:len(b)-1] }, batches - 1},
		{"truncate-mid-record", func(b []byte) []byte { return b[:len(b)-len(b)/8] }, batches - 1},
		{"flip-last-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, batches - 1},
		{"flip-header-of-last-record", func(b []byte) []byte { b[len(b)-5] ^= 0x01; return b }, batches - 1},
		{"empty-file", func(b []byte) []byte { return nil }, 0},
		{"header-only", func(b []byte) []byte { return b[:8] }, 0},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				label := fmt.Sprintf("%s/shards=%d", tc.name, shards)
				dir := durSeedDir(t, p, shards, -1, batches)
				path := durWalPath(dir)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.damage(raw), 0o644); err != nil {
					t.Fatal(err)
				}
				srv, err := durOpen(t, p, dir, shards, -1)
				if err != nil {
					t.Fatalf("%s: reopen: %v", label, err)
				}
				checkRecovered(t, label, p, srv, tc.want)
				if shards > 1 {
					checkEveryShard(t, srv, tc.want)
				}
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDurableOneLog: a durable server journals into exactly one log
// whatever its shard count, one record per admitted batch, each record
// the whole batch in admission order.
func TestDurableOneLog(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const batches = 5
	for _, shards := range []int{1, 2, 4} {
		dir := durSeedDir(t, p, shards, -1, batches)
		entries, err := os.ReadDir(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != filepath.Base(durWalPath(dir)) {
			t.Fatalf("shards=%d: wal/ holds %v, want the one log", shards, entries)
		}
		raw, err := os.ReadFile(durWalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		payloads, _, err := wal.Scan(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(payloads) != batches {
			t.Fatalf("shards=%d: the log holds %d records for %d admitted batches", shards, len(payloads), batches)
		}
		for k, payload := range payloads {
			batch, err := wal.DecodeBatch(payload)
			if err != nil {
				t.Fatalf("shards=%d: record %d: %v", shards, k, err)
			}
			want := durBatchFor(k)
			if len(batch) != len(want) {
				t.Fatalf("shards=%d: record %d holds %d profiles, batch %d has %d", shards, k, len(batch), k, len(want))
			}
			for i := range want {
				if batch[i].ID != want[i].ID {
					t.Fatalf("shards=%d: record %d profile %d is %q, want %q", shards, k, i, batch[i].ID, want[i].ID)
				}
			}
		}
	}
}

// TestDurableUndecodableRecordFailsClosed appends a record that passes
// its checksum but does not decode as a batch: recovery must refuse to
// serve rather than skip it, which would shift every later batch's ids.
func TestDurableUndecodableRecordFailsClosed(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := durSeedDir(t, p, 2, -1, 3)
	l, _, err := wal.Open(durWalPath(dir), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := durOpen(t, p, dir, 2, -1); err == nil || !strings.Contains(err.Error(), "wal record 3") {
		t.Fatalf("reopen over an undecodable record = %v, want a fail-closed error naming record 3", err)
	}
}

// TestDurableSnapshotFallback damages persisted snapshots and checks
// the adopt-or-rebuild rule: a set with an unusable at-cut file is not
// adopted — an older file cannot be rolled forward either — so the
// reopen rebuilds over the WAL: never a corrupted state, never a
// journaled batch lost.
func TestDurableSnapshotFallback(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards, batches = 2, 4
	mutate := []struct {
		name   string
		damage func(t *testing.T, sdir string, names []string)
	}{
		{"flip-newest", func(t *testing.T, sdir string, names []string) {
			path := filepath.Join(sdir, names[len(names)-1])
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x10
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete-all", func(t *testing.T, sdir string, names []string) {
			for _, name := range names {
				if err := os.Remove(filepath.Join(sdir, name)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"truncate-newest", func(t *testing.T, sdir string, names []string) {
			path := filepath.Join(sdir, names[len(names)-1])
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// A directory written before the snapshot layout changed: every
		// file is whole, checksummed, and of a version this build refuses
		// by name.
		{"old-layout-only", func(t *testing.T, sdir string, names []string) {
			for _, name := range names {
				path := filepath.Join(sdir, name)
				if err := os.WriteFile(path, oldLayoutSnapshot("BLSNAP01"), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := shard.ReadSnapshotFile(path); !errors.Is(err, shard.ErrSnapshotVersion) {
					t.Fatalf("old-layout file: %v, want ErrSnapshotVersion", err)
				}
			}
		}},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			dir := durSeedDir(t, p, shards, 1, batches)
			// A rebuild publishes strictly above every file left on disk;
			// an adopted snapshot keeps the epoch it was persisted under.
			rebuiltEpoch := make([]uint64, shards)
			for i := range rebuiltEpoch {
				sdir := durSnapDir(dir, i)
				names := snapFileNames(sdir)
				if len(names) == 0 {
					t.Fatalf("shard %d persisted no snapshots", i)
				}
				tc.damage(t, sdir, names)
				rebuiltEpoch[i] = 1
				if left := snapFileNames(sdir); len(left) > 0 {
					rebuiltEpoch[i] = snapFileEpoch(left[len(left)-1]) + 1
				}
			}
			srv, err := durOpen(t, p, dir, shards, 1)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			// The WAL holds every batch regardless of snapshot damage.
			checkRecovered(t, tc.name, p, srv, batches)
			for i, st := range srv.Stats() {
				if st.Epoch != rebuiltEpoch[i] {
					t.Errorf("shard %d published epoch %d, want the rebuild's %d", i, st.Epoch, rebuiltEpoch[i])
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// oldLayoutSnapshot is a checksum-valid snapshot file of a retired
// layout: the magic, a stub of a body, the CRC-32C of both.
func oldLayoutSnapshot(magic string) []byte {
	buf := append([]byte(magic), 1, 0, 2, 1, 1)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
}

// TestDurableManifestMismatch pins the fail-closed contract of the
// manifest: a durable directory only reopens under the layout and seed
// artifact it was created with, and a corrupt manifest opens nothing.
func TestDurableManifestMismatch(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := durSeedDir(t, p, 2, -1, 1)

	if _, err := durOpen(t, p, dir, 3, -1); err == nil {
		t.Error("reopen with a different shard count accepted")
	}
	otherSeed := synthDirty(stats.NewRNG(0xBEEF), 40)
	if _, err := p.Serve(ctx, otherSeed, ServerOptions{Shards: 2, Dir: dir, SyncEvery: 1}); err == nil {
		t.Error("reopen with a different seed artifact accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := durOpen(t, p, dir, 2, -1); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

// TestDurableManifestVersion1FailsClosed: a version-1 directory kept
// one log per shard, and this build does not read it. Whether or not
// its manifest carries the topology field version 1 wrote, the reopen
// fails before any log is read, with an error that names the version
// and the remedy.
func TestDurableManifestVersion1FailsClosed(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := durSeedDir(t, p, 2, -1, 1)
	manifest := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["version"] != float64(durManifestVersion) || fields["topology"] != nil {
		t.Fatalf("manifest %s, want version %d and no topology", raw, durManifestVersion)
	}
	fields["version"] = 1
	for _, topo := range []any{nil, "partitioned"} {
		if topo == nil {
			delete(fields, "topology")
		} else {
			fields["topology"] = topo
		}
		forged, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = durOpen(t, p, dir, 2, -1)
		if err == nil || !strings.Contains(err.Error(), "manifest version 1") || !strings.Contains(err.Error(), "seed artifact") {
			t.Errorf("version-1 directory (topology %v) reopened: %v", topo, err)
		}
	}
}

// TestCollectionFingerprintPinned holds the manifest's seed fingerprint
// to the values written by durable directories of earlier releases — the
// paper example's Token Blocking (dirty) and the default pipeline's
// cleaned DBP ×0.02 (clean-clean) — so those directories still reopen,
// and checks that a clone carrying appends digests like the same blocks
// laid out flat.
func TestCollectionFingerprintPinned(t *testing.T) {
	if got := collectionFingerprint(blocking.TokenBlocking(datasets.PaperExample())); got != 0x83153e704e5a161a {
		t.Errorf("paper example fingerprint %#x, want 0x83153e704e5a161a", got)
	}
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ds := datasets.DBP(0.02, 1)
	sch, err := p.InduceSchema(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Block(context.Background(), ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectionFingerprint(b.Collection); got != 0x59f987a0b3d76bdc {
		t.Errorf("DBP fingerprint %#x, want 0x59f987a0b3d76bdc", got)
	}
	grown := b.Collection.Clone()
	app := blocking.NewAppender(grown)
	for i := 0; i < 5; i++ {
		app.Append([]blocking.KeyEntropy{{Key: grown.Key(i), Entropy: 1}, {Key: grown.Key(2 * i), Entropy: 1}})
	}
	flat := make([]blocking.Block, grown.Len())
	for i := range flat {
		flat[i] = grown.Block(i)
	}
	if got, want := collectionFingerprint(grown), collectionFingerprint(blocking.FromBlocks(grown.Kind, grown.NumProfiles, grown.Split, flat)); got != want {
		t.Errorf("grown collection fingerprint %#x, flat layout %#x", got, want)
	}
}

// TestDurableOptionValidation: the durability knobs require Dir.
func TestDurableOptionValidation(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, sopt := range []ServerOptions{
		{SyncEvery: 1},
		{SnapshotEvery: 1},
		{SyncEvery: -1, SnapshotEvery: -1},
	} {
		if _, err := p.Serve(ctx, durDataset(), sopt); err == nil {
			t.Errorf("ServerOptions %+v accepted without Dir", sopt)
		}
	}
}
