package blast

// Durable serving: persistence and crash recovery for the sharded
// snapshot-swap Server. Enabled by ServerOptions.Dir, which lays out:
//
//	Dir/MANIFEST.json          layout + seed fingerprint, written once
//	Dir/wal/batches.wal        the write-ahead log, one record per admitted batch (internal/wal)
//	Dir/snap/shard-NNN/        epoch-named snapshot files (internal/shard)
//
// Write path. Server.InsertAll journals each admitted batch as one
// record (wal.AppendBatch) of the one log before ids are returned,
// whatever the shard count. An append that fails leaves no record and
// admits nothing; one whose failure could not be undone breaks the log,
// and the server with it (Server.Err). Snapshot persistence piggybacks
// on the shard publish hook: every SnapshotEvery admitted batches, the
// freshly published owned-rows snapshot is written (atomically, via
// temp file + fsync + rename) under the shard's snapshot directory and
// old files are pruned.
//
// Recovery. ServeBlocks over an existing Dir rebuilds the pre-crash
// state from the seed Blocks artifact plus the disk state:
//
//  1. The manifest is checked against the seed collection — no build
//     is needed for that — and a mismatch fails closed.
//  2. The log is opened, its torn tail truncated (internal/wal), and
//     its records decoded in order: record k is the k-th admitted
//     batch. A record that passes its checksum but does not decode
//     fails closed — recovery never invents, skips or reorders admitted
//     data.
//  3. Every shard appends every batch to its clone of the seed
//     collection, exactly as it did before the crash.
//  4. The published snapshots are adopted from disk when every shard
//     has one at exactly the log's record count and the files are one
//     set (the state a drained Close leaves). Otherwise one frozen
//     IndexBlocks build over the recovered union collection is sliced
//     into the owned rows.
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
	"sort"
	"strings"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
)

// durManifestVersion 2 journals into one log. Version 1 kept one log
// per shard, each holding that shard's owned subset of every batch; it
// is not read.
const durManifestVersion = 2

// durManifest pins the parameters a durable directory was created with.
// Reopening with a different layout or seed artifact would replay the
// log against the wrong base state, so any mismatch fails closed.
type durManifest struct {
	Version      int    `json:"version"`
	Shards       int    `json:"shards"`
	Kind         string `json:"kind"`
	SeedProfiles int    `json:"seed_profiles"`
	SeedBlocks   uint64 `json:"seed_blocks_fnv"`
	// Storage records the graph storage mode (Options.Storage) the
	// directory was created under; empty means memory, the zero value.
	// Pinning it keeps a reopen from silently flipping the build's
	// memory/spill behavior out from under an operator's capacity
	// planning.
	Storage string `json:"storage,omitempty"`
}

// manifestStorage renders a Storage for the manifest, mapping the
// memory zero value onto the field's backward-compatible zero.
func manifestStorage(s Storage) string {
	if s == StorageMemory {
		return ""
	}
	return s.String()
}

func durWalPath(dir string) string {
	return filepath.Join(dir, "wal", "batches.wal")
}

func durSnapDir(dir string, id int) string {
	return filepath.Join(dir, "snap", fmt.Sprintf("shard-%03d", id))
}

func durSnapPath(sdir string, epoch uint64) string {
	return filepath.Join(sdir, fmt.Sprintf("epoch-%016d.snap", epoch))
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
// durable directory.
func checkManifest(dir string, want durManifest) error {
	path := filepath.Join(dir, "MANIFEST.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		buf, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		return shard.WriteFileAtomic(path, append(buf, '\n'))
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

// snapPersister persists published snapshots for one shard on the
// SnapshotEvery cadence and prunes old files. It runs on the shard's
// worker goroutine only (plus once during recovery, before the worker
// starts), so it needs no locking.
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

// snapFileNames lists a shard's snapshot files, oldest first. The
// zero-padded decimal epoch makes lexical order numeric.
func snapFileNames(sdir string) []string {
	entries, err := os.ReadDir(sdir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "epoch-") && strings.HasSuffix(name, ".snap") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// snapFileEpoch parses the epoch out of a snapshot file name.
func snapFileEpoch(name string) uint64 {
	var epoch uint64
	fmt.Sscanf(name, "epoch-%d.snap", &epoch)
	return epoch
}

// openDurable prepares ServerOptions.Dir for ServeBlocks over the seed
// collection c: it makes the directories, checks (or, on first open,
// records) the manifest, opens the log and decodes the admitted batches
// it holds, failing closed on a record that does not decode. The
// returned pipeline is p, or a copy whose StorageFile builds spill
// under Dir when Options.SpillDir is empty.
func (p *Pipeline) openDurable(c *blocking.Collection, sopt ServerOptions) (*Pipeline, *wal.Log, [][]model.Profile, error) {
	n, dir := sopt.shards(), sopt.Dir
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(durSnapDir(dir, i), 0o755); err != nil {
			return nil, nil, nil, err
		}
	}
	if p.opt.Storage == StorageFile && p.opt.SpillDir == "" {
		// Spill segments default to living alongside the WAL and the
		// snapshots: one directory to provision, one filesystem whose
		// capacity and durability characteristics the operator reasons
		// about. (They are temporary either way — a build deletes them
		// once its rows are frozen.)
		spill := filepath.Join(dir, "spill")
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return nil, nil, nil, err
		}
		pp := *p
		pp.opt.SpillDir = spill
		p = &pp
	}
	if err := checkManifest(dir, durManifest{
		Version:      durManifestVersion,
		Shards:       n,
		Kind:         c.Kind.String(),
		SeedProfiles: c.NumProfiles,
		SeedBlocks:   collectionFingerprint(c),
		Storage:      manifestStorage(p.opt.Storage),
	}); err != nil {
		return nil, nil, nil, err
	}
	log, payloads, err := wal.Open(durWalPath(dir), sopt.walSyncEvery())
	if err != nil {
		return nil, nil, nil, err
	}
	batches := make([][]model.Profile, len(payloads))
	for k, payload := range payloads {
		if batches[k], err = wal.DecodeBatch(payload); err != nil {
			err = fmt.Errorf("blast: wal record %d: %w; refusing to replay", k, err)
			return nil, nil, nil, errors.Join(err, log.Close())
		}
	}
	return p, log, batches, nil
}

// adoptOwnedSnapshots tries to restore the initial published snapshots
// directly from disk: usable only when EVERY shard has a snapshot file
// that decodes, validates, and sits at exactly the log's record count
// (cut) with the right partition geometry and profile count — and the
// files are one set: they agree on the global counters, and between
// them hold each retained pair exactly twice, once in each endpoint's
// row (a file of another stream at the same cut passes every check of
// its own).
// Partitioned snapshots cannot be rolled forward (the writable side
// holds no decision state), so a stale, missing or foreign file on any
// one shard forces the whole set onto the cold rebuild path — adopting a
// mixed set would publish shards at different stream positions.
func adoptOwnedSnapshots(dir string, n, cut, numProfiles int) []*shard.Snapshot {
	snaps := make([]*shard.Snapshot, n)
	entries := 0
	for i := 0; i < n; i++ {
		sdir := durSnapDir(dir, i)
		names := snapFileNames(sdir)
		for k := len(names) - 1; k >= 0; k-- {
			snap, err := shard.ReadSnapshotFile(filepath.Join(sdir, names[k]))
			if err != nil || snap.Batches != int64(cut) || snap.NumProfiles != numProfiles ||
				snap.PartShards != n || snap.PartShard != i {
				continue
			}
			snaps[i] = snap
			break
		}
		if snaps[i] == nil || snaps[i].NumEdges != snaps[0].NumEdges ||
			snaps[i].RetainedPairs != snaps[0].RetainedPairs || len(snaps[i].Theta) != len(snaps[0].Theta) {
			return nil
		}
		entries += len(snaps[i].Neighbors)
	}
	if entries != 2*snaps[0].RetainedPairs {
		return nil
	}
	return snaps
}
