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
	"slices"
	"strings"
	"testing"

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

func durInsert(t *testing.T, srv writable, from, to int) {
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
// in-memory Index.
func durReferencePairs(t *testing.T, p *Pipeline, nBatches int) []model.IDPair {
	t.Helper()
	ref, err := p.BuildIndex(context.Background(), durDataset())
	if err != nil {
		t.Fatal(err)
	}
	durInsert(t, ref, 0, nBatches)
	return ref.Pairs()
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
	matchesCold(t, label, p, srv)
	got, err := srv.Pairs(context.Background())
	if err != nil {
		t.Fatalf("%s: Pairs: %v", label, err)
	}
	assertSamePairs(t, label+" vs reference", durReferencePairs(t, p, wantBatches), got)
}

// checkEveryShard runs one subtest per partition, named shard<i>,
// asserting the reopened server was cut back to the same surviving
// prefix in that partition's Stats entry: it sits at wantBatches of the
// insert stream, its state covers exactly the profiles those batches
// admitted, and no error is latched.
func checkEveryShard(t *testing.T, srv *Server, wantBatches int) {
	t.Helper()
	for i, st := range srv.Stats() {
		t.Run(fmt.Sprintf("shard%d", i), func(t *testing.T) {
			if err := srv.Err(); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			if st.Batches != int64(wantBatches) {
				t.Fatalf("shard %d sits at batch %d, want %d", i, st.Batches, wantBatches)
			}
			if got, want := st.Published, 40+wantBatches*durBatchSize; got != want {
				t.Fatalf("shard %d published %d profiles, want %d", i, got, want)
			}
		})
	}
}

// durableCase is a durable harness case over 40 synthetic profiles at
// SwapOps 2: opened at shards with the snapshot and sync cadences and
// the options opt adjusts (when set), running ops.
func durableCase(name string, shards, snap, sync int, opt func(*Options), ops ...op) modelCase {
	c := modelCase{name: name, seed: 0xD00D, data: dirtyData(40, 40), opt: DefaultOptions(), target: onDurable, ops: ops}
	if opt != nil {
		opt(&c.opt)
	}
	c.sopt = ServerOptions{Shards: shards, SwapOps: 2, SnapshotEvery: snap, SyncEvery: sync}
	return c
}

// reopenRow is one row of a durable reopen matrix: the shard count of
// the open and, when reshard is set, of the first and second reopen;
// the snapshot and sync cadences; and, when opt is set, an adjustment
// of the default options.
type reopenRow struct {
	shards, snap, sync int
	reshard            [2]int
	opt                func(*Options)
}

// reopenCases makes each row a durable harness case: open, check, three
// batches of three, check, then twice close, reopen, check and stream
// two more, two generations deep — the second recovering a directory a
// recovery produced (epoch continuation, snapshot pruning).
func reopenCases(prefix string, rows []reopenRow) []modelCase {
	cases := make([]modelCase, len(rows))
	b3 := insertAll(durBatchSize)
	for i, row := range rows {
		name := fmt.Sprintf("%sshards=%d/snap=%d/sync=%d", prefix, row.shards, row.snap, row.sync)
		if row.reshard != [2]int{} {
			name = fmt.Sprintf("%sshards=%d-%d-%d/snap=%d/sync=%d", prefix, row.shards, row.reshard[0], row.reshard[1], row.snap, row.sync)
		}
		cases[i] = durableCase(name, row.shards, row.snap, row.sync, row.opt,
			check, b3, b3, b3, check, op{opReopen, row.reshard[0]}, check, b3, b3, check, op{opReopen, row.reshard[1]}, check)
	}
	return cases
}

// TestDurableReopenMatrix runs the reopen matrix under the default
// pipeline across shard counts and snapshot/sync policies. SnapshotEvery
// 1 lands reopens on the adoption path (a drained Close leaves an at-cut
// snapshot); -1 forces the rebuild over the replayed WAL; 0 (default
// cadence 64) adopts what Close persisted — all must land on the
// identical state. Nothing on disk depends on the shard count, so the
// last two cells reopen at 1 and then 3 shards a directory written by 2,
// adopting and rebuilding.
func TestDurableReopenMatrix(t *testing.T) {
	runCases(t, reopenCases("", []reopenRow{
		{shards: 1, snap: 1, sync: 1},
		{shards: 2, snap: -1, sync: 1},
		{shards: 3, snap: 1, sync: -1},
		{shards: 2, snap: 0, sync: 0},
		{shards: 2, snap: 1, sync: 1, reshard: [2]int{1, 3}},
		{shards: 2, snap: -1, sync: 1, reshard: [2]int{1, 3}},
	}))
}

// TestDurableReopenBuildCount counts the index builds a reopen makes
// (Options.Progress "index" events) and every other stage it reports,
// as the harness does at every reopen: adopting an at-cut snapshot set
// builds nothing, and a WAL-only image is rebuilt by exactly one frozen
// build over the recovered union collection. Recovery drives no Index
// through the log, so nothing is re-frozen along the way, and the
// recovered server still equals the cold rebuild.
func TestDurableReopenBuildCount(t *testing.T) {
	b3, reopen := insertAll(durBatchSize), op{kind: opReopen}
	runCases(t, []modelCase{
		durableCase("adopt", 2, 1, 1, nil, b3, b3, b3, b3, reopen, check),
		durableCase("wal-only", 2, -1, 1, nil, b3, b3, b3, b3, reopen, check),
	})
}

// TestDurableReopenKeepsStreamPosition: a reopened server continues the
// insert stream from the cut, not from 0. Three generations deep at one
// and two shards, with a snapshot persisted every batch: every drained
// reopen adopts what the Close before it persisted — no index build —
// and after k more batches a quiesced View sits at the cut plus k.
func TestDurableReopenKeepsStreamPosition(t *testing.T) {
	b, reopen := insertAll(durBatchSize), op{kind: opReopen}
	gens := []op{b, b, check, reopen, b, b, check, reopen, b, b, check}
	runCases(t, []modelCase{durableCase("shards=1", 1, 1, 1, nil, gens...), durableCase("shards=2", 2, 1, 1, nil, gens...)})
}

// TestDurableMissingManifestFailsClosed: a directory that holds a log
// record or a snapshot but lost its manifest pins no seed, so no reopen
// is accepted — over the seed it was created with or any other — and
// nothing is admitted. An empty directory, or one holding only a log
// header, opens as a fresh one.
func TestDurableMissingManifestFailsClosed(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, snapEvery := range []int{-1, 1} {
		dir := durSeedDir(t, p, 2, snapEvery, 3)
		if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil {
			t.Fatal(err)
		}
		for name, seed := range map[string]*model.Dataset{
			"own seed":   durDataset(),
			"other seed": synthDirty(stats.NewRNG(0xBEEF), 40),
		} {
			srv, err := p.Serve(ctx, seed, ServerOptions{Shards: 2, Dir: dir, SyncEvery: 1, SnapshotEvery: snapEvery})
			if !errors.Is(err, errNoManifest) {
				t.Errorf("snap=%d %s: reopen without a manifest = %v, want errNoManifest", snapEvery, name, err)
			}
			if srv != nil {
				t.Errorf("snap=%d %s: a server admitting %d profiles came back", snapEvery, name, srv.Admitted())
				srv.Close()
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("snap=%d: a refused reopen wrote a manifest: %v", snapEvery, err)
		}
	}

	for name, prepare := range map[string]func(dir string){
		"empty dir": func(string) {},
		"log header only": func(dir string) {
			l, _, err := wal.Open(durWalPath(dir), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
	} {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		prepare(dir)
		srv, err := durOpen(t, p, dir, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRecovered(t, name, p, srv, 0)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
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
// the adopt-or-rebuild rule: an unusable at-cut file is not adopted —
// an older file cannot be rolled forward either — so the reopen
// rebuilds over the WAL: never a corrupted state, never a journaled
// batch lost.
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
			sdir := durSnapDir(dir)
			names := snapFileNames(sdir)
			if len(names) == 0 {
				t.Fatal("no snapshot persisted")
			}
			tc.damage(t, sdir, names)
			rebuiltEpoch := uint64(1)
			if left := snapFileNames(sdir); len(left) > 0 {
				last, _ := snapFileEpoch(left[len(left)-1])
				rebuiltEpoch = last + 1
			}
			srv, err := durOpen(t, p, dir, shards, 1)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			// The WAL holds every batch regardless of snapshot damage.
			checkRecovered(t, tc.name, p, srv, batches)
			for i, st := range srv.Stats() {
				if st.Epoch != rebuiltEpoch {
					t.Errorf("shard %d started at epoch %d, want the rebuild's %d", i, st.Epoch, rebuiltEpoch)
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableStraySnapshotNames: a file in the snapshot directory under
// a name the server never writes — a short epoch, a signed one, one past
// uint64, a suffix — is not a snapshot. A reopen keeps two real files
// beside the strays and leaves the strays alone, and a rebuild with no
// real file left publishes at epoch 1, not above a stray's epoch.
func TestDurableStraySnapshotNames(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const batches = 4
	dir := durSeedDir(t, p, 1, 1, batches)
	sdir := durSnapDir(dir)
	strays := []string{"epoch-9.snap", "epoch-+000000000000099.snap", "epoch-99999999999999999999.snap", "epoch-0000000000000099.snap.tmp"}
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(sdir, name), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	written := func() []string {
		entries, err := os.ReadDir(sdir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			if !slices.Contains(strays, e.Name()) {
				names = append(names, e.Name())
			}
		}
		return names
	}
	srv, err := durOpen(t, p, dir, 1, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	durInsert(t, srv, batches, batches+2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if names := written(); len(names) != 2 {
		t.Fatalf("snapshot files beside the strays: %v, want the newest two", names)
	}
	for _, name := range strays {
		if _, err := os.Stat(filepath.Join(sdir, name)); err != nil {
			t.Fatalf("stray %s: %v", name, err)
		}
	}

	for _, name := range written() {
		if err := os.Remove(filepath.Join(sdir, name)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err = durOpen(t, p, dir, 1, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	checkRecovered(t, "rebuild beside strays", p, srv, batches+2)
	if epoch := srv.Stats()[0].Epoch; epoch != 1 {
		t.Errorf("the rebuild published at epoch %d, want 1: no snapshot file is left", epoch)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// oldLayoutSnapshot is a checksum-valid snapshot file of a retired
// layout: the magic, a stub of a body, the CRC-32C of both.
func oldLayoutSnapshot(magic string) []byte {
	buf := append([]byte(magic), 1, 0, 2, 1, 1)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
}

// TestDurableManifestMismatch pins the fail-closed contract of the
// manifest: a durable directory only reopens over the seed artifact it
// was created with, and a corrupt manifest opens nothing. The shard
// count is no part of the layout: a reopen at another one serves the
// contract.
func TestDurableManifestMismatch(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := durSeedDir(t, p, 2, -1, 1)

	srv, err := durOpen(t, p, dir, 3, -1)
	if err != nil {
		t.Fatalf("reopen with a different shard count: %v", err)
	}
	checkRecovered(t, "reshard", p, srv, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
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
