package blast

// Durable serving: persistence and crash recovery for the
// snapshot-swap Server. Enabled by ServerOptions.Dir, which lays out:
//
//	Dir/MANIFEST.json          layout + seed fingerprint, written once
//	Dir/wal/batches.wal        the write-ahead log, one record per committed group (internal/wal)
//	Dir/snap/epoch-N.snap      one file per persisted state, every row (internal/shard)
//
// Nothing on disk depends on the shard count, so a directory reopens at
// any. Per-shard snapshot directories (Dir/snap/shard-NNN/) and the
// Dir/spill directory of earlier releases are never read; they are safe
// to delete.
//
// Write path. Server.InsertAll journals each committed group — the
// InsertAll calls queued together, one batch (see writer.Journal) — as
// one record (wal.AppendBatch) of the one log before ids are returned,
// whatever the shard count. An append that fails leaves no record and
// admits nothing; one whose failure could not be undone breaks the log,
// and the server with it (Server.Err). Snapshot persistence piggybacks
// on publication: every SnapshotEvery admitted batches, the freshly
// published state — every row of it — is written as one file
// (atomically, via temp file + fsync + rename) and old files are
// pruned.
//
// Recovery. ServeBlocks over an existing Dir rebuilds the pre-crash
// state from the seed Blocks artifact plus the disk state:
//
//  1. The manifest is checked against the seed collection — no build
//     is needed for that — and a mismatch fails closed, as does a
//     missing manifest beside a log record or a snapshot file.
//  2. The log is opened, its torn tail truncated (internal/wal), and
//     its records decoded in order: record k is the k-th admitted
//     batch. A record that passes its checksum but does not decode
//     fails closed — recovery never invents, skips or reorders admitted
//     data.
//  3. The writer appends every batch, once, to its clone of the seed
//     collection, exactly as it did before the crash.
//  4. The start state is adopted from disk: the newest snapshot file
//     that sits at exactly the log's record count over the recovered
//     profile count (the state a drained Close leaves). Otherwise it is
//     the writer's export over the recovered union collection.
//
// The recovered server then serves Pairs/Candidates/Threshold
// byte-identical to a cold IndexBlocks over seed + replayed inserts —
// the same contract Quiesce establishes, enforced by the differential
// matrix in durable_test.go and the SIGKILL harness in crash_test.go.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
)

// durManifestVersion 2 journals into one log. Version 1 kept one log
// per shard, each holding that shard's owned subset of every batch; it
// is not read. (Version 2 directories of earlier releases also recorded
// their shard count and storage mode; neither moves a served state, and
// both fields are ignored.)
const durManifestVersion = 2

// errNoManifest fails a durable directory that holds state but no
// manifest: nothing pins the seed its log was admitted over.
var errNoManifest = errors.New("blast: durable directory has no manifest")

// durManifest pins the parameters a durable directory was created with.
// Reopening with a different layout or seed artifact would replay the
// log against the wrong base state, so any mismatch fails closed.
type durManifest struct {
	Version      int    `json:"version"`
	Kind         string `json:"kind"`
	SeedProfiles int    `json:"seed_profiles"`
	SeedBlocks   uint64 `json:"seed_blocks_fnv"`
}

func durWalPath(dir string) string {
	return filepath.Join(dir, "wal", "batches.wal")
}

func durSnapDir(dir string) string {
	return filepath.Join(dir, "snap")
}

func durSnapPath(sdir string, epoch uint64) string {
	return filepath.Join(sdir, snapFileName(epoch))
}

func snapFileName(epoch uint64) string {
	return fmt.Sprintf("epoch-%016d.snap", epoch)
}

// collectionFingerprint digests the structural identity of the seed
// block collection (kind, split, block keys and memberships) so the
// manifest can reject a reopen against a different artifact.
func collectionFingerprint(c *blocking.Collection) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	u64(uint64(c.Kind))
	u64(uint64(c.NumProfiles))
	u64(uint64(c.Split))
	u64(uint64(c.Len()))
	for i := 0; i < c.Len(); i++ {
		b := c.Block(i)
		h.Write([]byte(b.Key))
		u64(math.Float64bits(b.Entropy))
		u64(uint64(len(b.P1)))
		for _, p := range b.P1 {
			u64(uint64(uint32(p)))
		}
		u64(uint64(len(b.P2)))
		for _, p := range b.P2 {
			u64(uint64(uint32(p)))
		}
	}
	return h.Sum64()
}

// checkManifest verifies (or, on first open, records) the layout of a
// durable directory. A first open is one whose directory holds no log
// record and no snapshot file: the manifest is written before either.
func checkManifest(dir string, want durManifest) error {
	path := filepath.Join(dir, "MANIFEST.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		log, _ := os.ReadFile(durWalPath(dir))
		if records, _, err := wal.Scan(log); err != nil || len(records) > 0 || len(snapFileNames(durSnapDir(dir))) > 0 {
			return fmt.Errorf("%w: %s holds a write-ahead log or snapshots; restore its MANIFEST.json or serve the seed artifact into an empty Dir", errNoManifest, dir)
		}
		buf, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		return wal.WriteFileAtomic(path, append(buf, '\n'))
	}
	if err != nil {
		return err
	}
	var got durManifest
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("blast: corrupt manifest %s: %w", path, err)
	}
	if got.Version != want.Version {
		return fmt.Errorf("blast: durable dir %s has manifest version %d; this build reads version %d only, whose write-ahead log is one file rather than one per shard. Recreate the directory from the seed artifact (serve it into an empty Dir) and re-admit its inserts", dir, got.Version, want.Version)
	}
	if got != want {
		return fmt.Errorf("blast: durable dir %s was created as %+v; reopened as %+v", dir, got, want)
	}
	return nil
}

// snapPersister persists published states on the SnapshotEvery cadence
// and prunes old files. It runs inline on the writer's worker goroutine
// as each state is published (plus once during recovery, before the
// worker starts, and once in Close, after it exits), so those calls
// never overlap and it needs no locking.
type snapPersister struct {
	dir   string
	every int64
	keep  int
	last  int64 // Batches position of the last persisted snapshot
}

func (sp *snapPersister) persist(snap *shard.Snapshot) error {
	if snap.Batches-sp.last < sp.every {
		return nil
	}
	return sp.persistNow(snap)
}

func (sp *snapPersister) persistNow(snap *shard.Snapshot) error {
	if err := shard.WriteSnapshotFile(durSnapPath(sp.dir, snap.Epoch), snap); err != nil {
		return err
	}
	sp.last = snap.Batches
	sp.prune()
	return nil
}

// prune removes all but the newest keep snapshot files. Keeping more
// than one gives recovery a fallback should the newest file turn out
// torn or corrupt. Removal failures are ignored: stale files cost disk,
// never correctness.
func (sp *snapPersister) prune() {
	names := snapFileNames(sp.dir)
	for len(names) > sp.keep {
		os.Remove(filepath.Join(sp.dir, names[0]))
		names = names[1:]
	}
}

// snapFileNames lists the snapshot files of a directory, oldest first:
// only the names snapFileName formats, so a stray file is neither
// adopted nor counted among the ones prune keeps, and no epoch is read
// off it.
func snapFileNames(sdir string) []string {
	entries, err := os.ReadDir(sdir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if _, ok := snapFileEpoch(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	// ReadDir sorts by name, and past 16 digits a longer name is a later
	// epoch.
	slices.SortStableFunc(names, func(a, b string) int { return len(a) - len(b) })
	return names
}

// snapFileEpoch parses the epoch out of a snapshot file name; ok is
// false for any name snapFileName does not format.
func snapFileEpoch(name string) (epoch uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "epoch-%d.snap", &epoch); err != nil {
		return 0, false
	}
	return epoch, name == snapFileName(epoch)
}

// openDurable prepares ServerOptions.Dir for ServeBlocks over the seed
// collection c: it makes the directories, checks (or, on first open,
// records) the manifest, opens the log and decodes the admitted batches
// it holds, failing closed on a record that does not decode.
func openDurable(c *blocking.Collection, sopt ServerOptions) (*wal.Log, [][]model.Profile, error) {
	dir := sopt.Dir
	for _, sub := range []string{filepath.Join(dir, "wal"), durSnapDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, err
		}
	}
	if err := checkManifest(dir, durManifest{
		Version:      durManifestVersion,
		Kind:         c.Kind.String(),
		SeedProfiles: c.NumProfiles,
		SeedBlocks:   collectionFingerprint(c),
	}); err != nil {
		return nil, nil, err
	}
	log, payloads, err := wal.Open(durWalPath(dir), sopt.walSyncEvery())
	if err != nil {
		return nil, nil, err
	}
	batches := make([][]model.Profile, len(payloads))
	for k, payload := range payloads {
		if batches[k], err = wal.DecodeBatch(payload); err != nil {
			err = fmt.Errorf("blast: wal record %d: %w; refusing to replay", k, err)
			return nil, nil, errors.Join(err, log.Close())
		}
	}
	return log, batches, nil
}

// adoptSnapshot returns the state to start from, read from the
// snapshot directory: the newest file that decodes, validates and sits
// at exactly the log's record count (cut) over the recovered profile
// count — or nil, and the caller rebuilds. A file cannot be rolled
// forward (the writable side holds no decision state), so an older one
// is no use.
func adoptSnapshot(sdir string, cut, numProfiles int) *shard.Snapshot {
	names := snapFileNames(sdir)
	for k := len(names) - 1; k >= 0; k-- {
		snap, err := shard.ReadSnapshotFile(filepath.Join(sdir, names[k]))
		if err == nil && snap.Batches == int64(cut) && snap.NumProfiles == numProfiles {
			return snap
		}
	}
	return nil
}
