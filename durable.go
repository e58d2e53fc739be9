package blast

// Durable serving: persistence and crash recovery for the sharded
// snapshot-swap Server. Enabled by ServerOptions.Dir, which lays out:
//
//	Dir/MANIFEST.json          layout + seed fingerprint, written once
//	Dir/wal/shard-NNN.wal      per-shard write-ahead log (internal/wal)
//	Dir/snap/shard-NNN/        epoch-named snapshot files (internal/shard)
//
// Write path. Server.InsertAll journals the admitted batch on EVERY
// shard's WAL before ids are returned; shard i's record carries just
// the profiles whose assigned ids hash to i (wal.AppendOwnedBatch), so
// between them the logs hold the batch once and every log holds one
// record per batch. Should an append fail on some log after succeeding
// on another, the batch is rolled back off the logs that took it; if
// even the rollback fails the server poisons itself (sticky error, no
// further admissions) rather than let logs diverge mid-sequence.
// Snapshot persistence piggybacks on the shard publish hook: every
// SnapshotEvery admitted batches, the freshly published owned-rows
// snapshot is written (atomically, via temp file + fsync + rename)
// under the shard's snapshot directory and old files are pruned.
//
// Recovery. ServeBlocks over an existing Dir rebuilds the pre-crash
// state from the seed Blocks artifact plus the disk state:
//
//  1. The manifest is checked against the seed collection — no build
//     is needed for that — and a mismatch fails closed.
//  2. Every WAL is opened, its torn tail truncated (internal/wal), and
//     the common cut — the minimum record count — taken: a batch was
//     admitted only if its record landed on every log, and since
//     appends run in shard order the counts are non-increasing across
//     shards at any crash instant. Logs past the cut are truncated back
//     and the admitted batches reassembled from the owned subsets; any
//     gap, overlap or undecodable record inside the cut fails closed —
//     recovery never invents or reorders admitted data.
//  3. Every shard appends every batch to its clone of the seed
//     collection, exactly as it did before the crash.
//  4. The published snapshots are adopted from disk when every shard
//     has one at exactly the cut and the files are one set (the state a
//     drained Close leaves). Otherwise one frozen IndexBlocks build over
//     the recovered union collection is sliced into the owned rows.
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
	"sync"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
)

const durManifestVersion = 1

// durManifest pins the parameters a durable directory was created with.
// Reopening with a different layout or seed artifact would replay the
// logs against the wrong base state, so any mismatch fails closed.
type durManifest struct {
	Version      int    `json:"version"`
	Shards       int    `json:"shards"`
	Kind         string `json:"kind"`
	SeedProfiles int    `json:"seed_profiles"`
	SeedBlocks   uint64 `json:"seed_blocks_fnv"`
	// Topology pins the WAL record format: "partitioned" logs hold
	// per-shard owned subsets. Directories of the removed replicated
	// topology, whose logs hold full batches, recorded no topology and so
	// fail the check.
	Topology string `json:"topology,omitempty"`
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

func durWalPath(dir string, id int) string {
	return filepath.Join(dir, "wal", fmt.Sprintf("shard-%03d.wal", id))
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
	if got != want {
		return fmt.Errorf("blast: durable dir %s was created as %+v; reopened as %+v", dir, got, want)
	}
	return nil
}

// durability is the write-side durable state of a Server: the open WALs
// and the sticky error that poisons admission when the logs can no
// longer be kept in agreement.
type durability struct {
	mu      sync.Mutex
	wals    []*wal.Log
	scratch []byte
	sticky  error
	// base is the id the next batch's first profile will be assigned;
	// appendBatch runs under the server's admission lock, so it tracks
	// nextID exactly.
	base int
}

func (d *durability) err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sticky
}

// appendBatch journals one admitted batch: shard i's log takes the
// profiles it owns (by assigned id), and every log takes a record, so
// record counts stay aligned. On a partial failure the batch is rolled
// back off the logs that took it; an unrollbackable partial append
// poisons the server, because logs that disagree mid-sequence would make
// the next recovery fail closed.
func (d *durability) appendBatch(batch []model.Profile) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sticky != nil {
		return d.sticky
	}
	n := len(d.wals)
	for i, l := range d.wals {
		d.scratch = wal.AppendOwnedBatch(d.scratch[:0], batch, func(k int) bool {
			return shard.Owner(int32(d.base+k), n) == i
		})
		if err := l.Append(d.scratch); err != nil {
			for j := 0; j < i; j++ {
				if rbErr := d.wals[j].Truncate(d.wals[j].Records() - 1); rbErr != nil {
					d.sticky = fmt.Errorf("blast: wal rollback after append failure (%v): %w", err, rbErr)
					return d.sticky
				}
			}
			return fmt.Errorf("blast: wal append (shard %d): %w", i, err)
		}
	}
	d.base += len(batch)
	return nil
}

// close syncs and releases every WAL, reporting the first failure.
func (d *durability) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, l := range d.wals {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
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

// recovery is what a durable open found on disk: the WALs, open and
// cut back to their common prefix, and the admitted batches reassembled
// from them.
type recovery struct {
	logs    []*wal.Log
	batches [][]model.Profile
}

// closeLogs releases the WALs of a recovery that is failing.
func (r *recovery) closeLogs() {
	for _, l := range r.logs {
		if l != nil {
			//blast:allow syncerr -- recovery is already failing with a primary error; this close is a best-effort descriptor release and must not mask it (nothing was admitted on these logs)
			l.Close()
		}
	}
}

// openDurable prepares ServerOptions.Dir for ServeBlocks over the seed
// collection c: it makes the directories, checks (or, on first open,
// records) the manifest, opens the WALs, cuts them to their common
// prefix and reassembles the admitted batches, failing closed on any
// disagreement. The returned pipeline is p, or a copy whose StorageFile
// builds spill under Dir when Options.SpillDir is empty.
func (p *Pipeline) openDurable(c *blocking.Collection, sopt ServerOptions) (*Pipeline, *recovery, error) {
	n, dir := sopt.shards(), sopt.Dir
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(durSnapDir(dir, i), 0o755); err != nil {
			return nil, nil, err
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
			return nil, nil, err
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
		Topology:     "partitioned",
		Storage:      manifestStorage(p.opt.Storage),
	}); err != nil {
		return nil, nil, err
	}

	rec := &recovery{logs: make([]*wal.Log, n)}
	recs := make([][][]byte, n)
	for i := range rec.logs {
		l, payloads, err := wal.Open(durWalPath(dir, i), sopt.walSyncEvery())
		if err != nil {
			rec.closeLogs()
			return nil, nil, err
		}
		rec.logs[i], recs[i] = l, payloads
	}
	cut := len(recs[0])
	for _, r := range recs[1:] {
		cut = min(cut, len(r))
	}
	var err error
	for _, l := range rec.logs {
		if err = l.Truncate(cut); err != nil {
			break
		}
	}
	if err == nil {
		rec.batches, err = reassembleOwnedBatches(recs, cut, c.NumProfiles, n)
	}
	if err != nil {
		rec.closeLogs()
		return nil, nil, err
	}
	return p, rec, nil
}

// reassembleOwnedBatches rebuilds the admitted batch sequence from the
// per-shard owned-subset records, failing closed on any disagreement:
// diverging batch lengths, a profile journaled by a shard that does not
// own its assigned id, or a position no shard covers. seed is the
// profile count ids start from; within one shard the decoder already
// rejects duplicate positions, and ownership makes cross-shard overlap
// impossible, so covering every position exactly once reduces to a
// count check.
func reassembleOwnedBatches(recs [][][]byte, cut, seed, n int) ([][]model.Profile, error) {
	batches := make([][]model.Profile, cut)
	base := seed
	for k := 0; k < cut; k++ {
		var batch []model.Profile
		var have []bool
		blen, filled := -1, 0
		for i := 0; i < n; i++ {
			bl, entries, err := wal.DecodeOwnedBatch(recs[i][k])
			if err != nil {
				return nil, fmt.Errorf("blast: wal record %d (shard %d): %w", k, i, err)
			}
			if blen < 0 {
				blen = bl
				batch = make([]model.Profile, bl)
				have = make([]bool, bl)
			} else if bl != blen {
				return nil, fmt.Errorf("blast: wal record %d: batch length differs between shards 0 (%d) and %d (%d); refusing to replay", k, blen, i, bl)
			}
			for _, e := range entries {
				if shard.Owner(int32(base+e.Index), n) != i {
					return nil, fmt.Errorf("blast: wal record %d: shard %d journaled profile %d it does not own; refusing to replay", k, i, e.Index)
				}
				batch[e.Index] = e.Profile
				have[e.Index] = true
				filled++
			}
		}
		if filled != blen {
			for j, ok := range have {
				if !ok {
					return nil, fmt.Errorf("blast: wal record %d: no shard journaled profile %d of %d; refusing to replay", k, j, blen)
				}
			}
		}
		batches[k] = batch
		base += blen
	}
	return batches, nil
}

// adoptOwnedSnapshots tries to restore the initial published snapshots
// directly from disk: usable only when EVERY shard has a snapshot file
// that decodes, validates, and sits at exactly the WAL cut with the
// right partition geometry and profile count — and the files are one
// set: they agree on the global counters, and between them hold each
// retained pair exactly twice, once in each endpoint's row (a file of
// another stream at the same cut passes every check of its own).
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
