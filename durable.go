package blast

// Durable serving: persistence and crash recovery for the sharded
// snapshot-swap Server. Enabled by ServerOptions.Dir, which lays out:
//
//	Dir/MANIFEST.json          layout + seed fingerprint, written once
//	Dir/wal/shard-NNN.wal      per-shard write-ahead log (internal/wal)
//	Dir/snap/shard-NNN/        epoch-named snapshot files (internal/shard)
//
// Write path. Server.InsertAll encodes the admitted batch once and
// appends the record to EVERY shard's WAL before ids are returned —
// the logs mirror the in-memory broadcast, so each is independently a
// complete journal of the global insert sequence. Should an append fail
// on some log after succeeding on another, the batch is rolled back off
// the logs that took it; if even the rollback fails the server poisons
// itself (sticky error, no further admissions) rather than let logs
// diverge mid-sequence. Snapshot persistence piggybacks on the shard
// publish hook: every SnapshotEvery admitted batches, the freshly
// published snapshot is written (atomically, via temp file + rename)
// under the shard's snapshot directory and old files are pruned.
//
// Recovery. ServeBlocks over an existing Dir rebuilds the pre-crash
// state from the seed Blocks artifact plus the disk state:
//
//	1. Every WAL is opened, its torn tail truncated (internal/wal), and
//	   the common cut — the minimum record count — taken: a batch was
//	   admitted only if its record landed on every log, and since
//	   appends run in shard order the counts are non-increasing across
//	   shards at any crash instant. Logs past the cut are truncated
//	   back, and the per-record bytes are cross-checked across shards
//	   (they are encodings of one batch sequence and must be identical);
//	   any disagreement or undecodable record inside the cut fails
//	   closed — recovery never invents or reorders admitted data.
//	2. Per shard, the newest snapshot file that decodes, validates, and
//	   covers at most the cut fixes the replica's starting position
//	   (Index.restoreIndex: the writer is re-derived over seed + that
//	   batch prefix and must reproduce the snapshot's rows bit for bit);
//	   unusable snapshots — files of an older layout among them — fall
//	   back to older ones, then to a cold build replaying the whole WAL.
//	3. The WAL records past each shard's snapshot position are replayed
//	   through the ordinary InsertAll path, after which every replica
//	   sits exactly where a never-crashed server's replicas would.
//
// The recovered server then serves Pairs/Candidates/Threshold
// byte-identical to a cold IndexBlocks over seed + replayed inserts —
// the same contract Quiesce establishes, enforced by the differential
// matrix in durable_test.go and the SIGKILL harness in crash_test.go.
//
// Partitioned topology. Under ServerOptions.Topology ==
// TopologyPartitioned the layout is the same but both artifact kinds
// hold only owned state: shard i's WAL records carry just the profiles
// whose assigned ids hash to i (wal.AppendOwnedBatch — every shard
// still journals every batch, so the common-cut rule is unchanged), and
// its snapshot files hold its owned rows only. Recovery
// reassembles the full batch sequence from the per-shard subsets with
// fail-closed coverage checks, replays it into every shard's appender,
// and restores the published snapshots either by adopting a complete,
// cross-checked at-cut set from disk (the replay-free path a drained
// Close leaves) or by slicing a cold master rebuild. See
// finishDurablePartitioned.

import (
	"bytes"
	"context"
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
	// Topology records the shard topology the directory journals for.
	// The empty string means replicated — the only topology that existed
	// before the field did, so directories from older versions reopen
	// cleanly — and the WAL record format depends on it: replicated logs
	// hold full batches, partitioned logs hold per-shard owned subsets.
	Topology string `json:"topology,omitempty"`
	// Storage records the graph storage mode (Options.Storage) the
	// directory was created under, with the same empty-means-zero-value
	// back-compat convention as Topology (empty = memory). Pinning it
	// keeps a reopen from silently flipping the build's memory/spill
	// behavior out from under an operator's capacity planning.
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

// manifestTopology renders a Topology for the manifest, mapping the
// replicated zero value onto the field's backward-compatible zero.
func manifestTopology(t Topology) string {
	if t == TopologyReplicated {
		return ""
	}
	return t.String()
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
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
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
	// parts > 0 selects partitioned journaling: shard i's log takes only
	// the profiles it owns of each batch (by assigned id), every shard
	// still journaling every batch so record counts stay aligned. base is
	// the id the next batch's first profile will be assigned; appendBatch
	// runs under the server's admission lock, so it tracks nextID exactly.
	parts int
	base  int
}

func (d *durability) err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sticky
}

// appendBatch journals one admitted batch on every shard's WAL. On a
// partial failure the batch is rolled back off the logs that took it;
// an unrollbackable partial append poisons the server, because logs
// that disagree mid-sequence would make the next recovery fail closed.
func (d *durability) appendBatch(batch []model.Profile) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sticky != nil {
		return d.sticky
	}
	for i, l := range d.wals {
		if d.parts > 0 {
			base := d.base
			d.scratch = wal.AppendOwnedBatch(d.scratch[:0], batch, func(k int) bool {
				return shard.Owner(int32(base+k), d.parts) == i
			})
		} else if i == 0 {
			// Replicated logs all take the identical full-batch encoding;
			// encode it once.
			d.scratch = wal.AppendBatch(d.scratch[:0], batch)
		}
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

// serveDurable is ServeBlocks' durable construction path: recover the
// on-disk state (if any), replay, and start shards wired to the WALs
// and the snapshot persisters.
func (p *Pipeline) serveDurable(ctx context.Context, blocks *Blocks, sopt ServerOptions) (*Server, error) {
	n := sopt.shards()
	dir := sopt.Dir
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(durSnapDir(dir, i), 0o755); err != nil {
			return nil, err
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
			return nil, err
		}
		pp := *p
		pp.opt.SpillDir = spill
		p = &pp
	}
	// A replicated master becomes a replica, a writer from the start. A
	// partitioned one is only exported and sliced, which its frozen form
	// serves; should a WAL suffix need replaying through it, its first
	// InsertAll thaws it like any frozen index.
	master, err := p.indexBlocks(ctx, blocks, sopt.Topology != TopologyPartitioned)
	if err != nil {
		return nil, err
	}
	if err := checkManifest(dir, durManifest{
		Version:      durManifestVersion,
		Shards:       n,
		Kind:         master.Kind().String(),
		SeedProfiles: master.NumProfiles(),
		SeedBlocks:   collectionFingerprint(blocks.Collection),
		Topology:     manifestTopology(sopt.Topology),
		Storage:      manifestStorage(p.opt.Storage),
	}); err != nil {
		return nil, err
	}

	// Open the WALs, truncate to the common cut, decode the batches.
	logs := make([]*wal.Log, n)
	recs := make([][][]byte, n)
	closeLogs := func() {
		for _, l := range logs {
			if l != nil {
				//blast:allow syncerr -- recovery is already failing with a primary error; this close is a best-effort descriptor release and must not mask it (nothing was admitted on these logs)
				l.Close()
			}
		}
	}
	for i := range logs {
		l, payloads, err := wal.Open(durWalPath(dir, i), sopt.walSyncEvery())
		if err != nil {
			closeLogs()
			return nil, err
		}
		logs[i] = l
		recs[i] = payloads
	}
	cut := len(recs[0])
	for _, r := range recs[1:] {
		cut = min(cut, len(r))
	}
	for i := range logs {
		if err := logs[i].Truncate(cut); err != nil {
			closeLogs()
			return nil, err
		}
	}
	if sopt.Topology == TopologyPartitioned {
		return p.finishDurablePartitioned(ctx, blocks, master, sopt, dir, logs, recs, cut, closeLogs)
	}
	batches := make([][]model.Profile, cut)
	for k := 0; k < cut; k++ {
		for i := 1; i < n; i++ {
			if !bytes.Equal(recs[0][k], recs[i][k]) {
				closeLogs()
				return nil, fmt.Errorf("blast: wal record %d differs between shards 0 and %d; refusing to replay", k, i)
			}
		}
		b, err := wal.DecodeBatch(recs[0][k])
		if err != nil {
			closeLogs()
			return nil, fmt.Errorf("blast: wal record %d: %w", k, err)
		}
		batches[k] = b
	}

	// Phase 1 — pick each shard's recovery source. Cold fallbacks clone
	// the master NOW, before any replay mutates it.
	reps := make([]*Index, n)
	replayFrom := make([]int, n)
	epochs := make([]uint64, n)
	masterUsed := false
	for i := 0; i < n; i++ {
		ix, from, maxEpoch := p.recoverReplica(ctx, blocks, durSnapDir(dir, i), batches)
		if ix == nil {
			if masterUsed {
				ix = master.cloneForServing()
			} else {
				ix = master
				masterUsed = true
			}
			from = 0
		}
		reps[i] = ix
		replayFrom[i] = from
		if maxEpoch > 0 || cut > 0 {
			// Something was on disk (or must now be replayed): publish
			// strictly above every persisted epoch so the recovered
			// initial snapshot can itself be persisted without clobbering
			// a file recovery might still need.
			epochs[i] = maxEpoch + 1
		}
	}

	// Phase 2 — replay the WAL suffix through the ordinary insert path
	// and start the shards.
	shOpt := p.shardOptions(sopt)
	srv := &Server{
		kind:     master.Kind(),
		storage:  p.opt.Storage,
		shards:   make([]*shard.Shard, n),
		replicas: make([]*Index, n),
		pers:     make([]*snapPersister, n),
		nextID:   master.NumProfiles(),
	}
	for _, b := range batches {
		srv.nextID += len(b)
	}
	var fresh *shard.Snapshot
	for i := 0; i < n; i++ {
		rep := reps[i]
		rep.opt.Compaction = Compaction{MaxOverlayFraction: -1}
		for k, b := range batches[replayFrom[i]:] {
			if _, err := rep.InsertAll(context.Background(), b); err != nil {
				closeLogs()
				return nil, fmt.Errorf("blast: wal replay, batch %d on shard %d: %w", replayFrom[i]+k, i, err)
			}
		}
		var snap *shard.Snapshot
		if epochs[i] == 0 {
			// Fresh directory: identical to the in-memory path, one
			// shared epoch-0 snapshot of the pristine build.
			if fresh == nil {
				if fresh, err = master.exportSnapshot(ctx); err != nil {
					closeLogs()
					return nil, err
				}
			}
			snap = fresh
		} else {
			es, err := rep.exportSnapshot(ctx)
			if err != nil {
				closeLogs()
				return nil, err
			}
			//blast:allow snapshotmut -- pre-publication tag of a freshly exported private snapshot; no reader can hold it before shard.New
			es.Epoch = epochs[i]
			//blast:allow snapshotmut -- pre-publication tag of a freshly exported private snapshot; no reader can hold it before shard.New
			es.Batches = int64(cut)
			snap = es
		}
		shOptI := shOpt
		if every := sopt.snapshotEvery(); every > 0 {
			sp := &snapPersister{dir: durSnapDir(dir, i), every: every, keep: 2, last: int64(cut)}
			if epochs[i] > 0 {
				// Persist the recovered state immediately: the next crash
				// then replays only the batches admitted after this open.
				if err := sp.persistNow(snap); err != nil {
					closeLogs()
					return nil, err
				}
			}
			shOptI.Persist = sp.persist
			srv.pers[i] = sp
		}
		srv.replicas[i] = rep
		srv.shards[i] = shard.New(i, indexWriter{rep}, snap, shOptI)
	}
	srv.dur = &durability{wals: logs}
	return srv, nil
}

// finishDurablePartitioned is serveDurable's tail for the partitioned
// topology, entered with the logs already open and truncated to the
// common cut. Partitioned logs hold per-shard owned subsets, so
// recovery first reassembles the admitted batch sequence: per record,
// every shard's subset must decode, the batch lengths must agree, each
// profile must come from exactly the shard owning its assigned id, and
// every position must be covered — any gap or overlap fails closed.
//
// The writable side needs no snapshot-based restore: a partIndex holds
// no decision state between exports (Export rebuilds the owned CSR from
// the collection), so every shard simply replays all batches through
// the ordinary append path. The initial published snapshots come from
// the persisted owned snapshots when every shard has a usable one at
// exactly the cut — the state a drained Close leaves behind, making the
// common restart replay-free — and otherwise from slicing a full master
// rebuild over seed plus replayed batches, byte-identical to what the
// shards' own exchange-driven exports would produce.
func (p *Pipeline) finishDurablePartitioned(ctx context.Context, blocks *Blocks, master *Index, sopt ServerOptions, dir string, logs []*wal.Log, recs [][][]byte, cut int, closeLogs func()) (*Server, error) {
	n := sopt.shards()
	batches, err := reassembleOwnedBatches(recs, cut, master.NumProfiles(), n)
	if err != nil {
		closeLogs()
		return nil, err
	}
	expected := master.NumProfiles()
	for _, b := range batches {
		expected += len(b)
	}

	snaps := adoptOwnedSnapshots(dir, n, cut, expected)
	if snaps == nil {
		// No adoptable at-cut snapshot set: rebuild the union state cold
		// and slice it. The master replay runs the ordinary insert path,
		// so the sliced rows match the shards' own exports bit for bit.
		for k, b := range batches {
			if _, err := master.InsertAll(ctx, b); err != nil {
				closeLogs()
				return nil, fmt.Errorf("blast: wal replay, batch %d on master: %w", k, err)
			}
		}
		full, err := master.exportSnapshot(ctx)
		if err != nil {
			closeLogs()
			return nil, err
		}
		snaps = make([]*shard.Snapshot, n)
		for i := 0; i < n; i++ {
			snap := shard.SliceOwned(full, i, n)
			maxEpoch := uint64(0)
			for _, name := range snapFileNames(durSnapDir(dir, i)) {
				maxEpoch = max(maxEpoch, snapFileEpoch(name))
			}
			if maxEpoch > 0 || cut > 0 {
				// Same epoch discipline as the replicated recovery: publish
				// strictly above every file on disk, at the WAL cut.
				//blast:allow snapshotmut -- pre-publication tag of a freshly sliced private snapshot; no reader can hold it before shard.New
				snap.Epoch = maxEpoch + 1
				//blast:allow snapshotmut -- pre-publication tag of a freshly sliced private snapshot; no reader can hold it before shard.New
				snap.Batches = int64(cut)
			}
			snaps[i] = snap
		}
	}

	shOpt := p.shardOptions(sopt)
	// Only the deterministic SwapOps count may make an export fall due —
	// see servePartitioned.
	shOpt.MaxOverlayFraction = 0
	ex := shard.NewExchange(n)
	shOpt.OnFail = func(err error) { ex.Poison(err) }
	srv := &Server{
		kind:     master.Kind(),
		topology: TopologyPartitioned,
		storage:  p.opt.Storage,
		shards:   make([]*shard.Shard, n),
		parts:    make([]*partIndex, n),
		pers:     make([]*snapPersister, n),
		schema:   blocks.Schema,
		nextID:   expected,
	}
	for i := 0; i < n; i++ {
		px := newPartIndex(blocks.Collection.Clone(), blocks.Schema, p.opt, i, n, ex)
		for k, b := range batches {
			if _, err := px.InsertAll(ctx, b); err != nil {
				closeLogs()
				return nil, fmt.Errorf("blast: wal replay, batch %d on shard %d: %w", k, i, err)
			}
		}
		shOptI := shOpt
		if every := sopt.snapshotEvery(); every > 0 {
			sp := &snapPersister{dir: durSnapDir(dir, i), every: every, keep: 2, last: int64(cut)}
			if snaps[i].Epoch > 0 && snaps[i].Batches == int64(cut) {
				// Rebuilt over a non-fresh directory: persist the recovered
				// state so the next open can adopt it without replay. An
				// adopted snapshot is already on disk; persistNow rewrites
				// the same bytes, which is harmless and keeps one rule.
				if err := sp.persistNow(snaps[i]); err != nil {
					closeLogs()
					return nil, err
				}
			}
			shOptI.Persist = sp.persist
			srv.pers[i] = sp
		}
		srv.parts[i] = px
		srv.shards[i] = shard.New(i, px, snaps[i], shOptI)
	}
	srv.dur = &durability{wals: logs, parts: n, base: expected}
	return srv, nil
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

// recoverReplica restores one shard's writable replica from its newest
// usable snapshot file: one that decodes and validates, covers no more
// than the WAL cut, and matches the structure rebuilt from the seed and
// its batch prefix. Unusable files fall back to older ones; a nil index
// means no snapshot was usable and the caller replays from a cold
// build. maxEpoch reports the highest epoch among the files present
// (usable or not), so new publications stay strictly above them.
func (p *Pipeline) recoverReplica(ctx context.Context, blocks *Blocks, sdir string, batches [][]model.Profile) (ix *Index, from int, maxEpoch uint64) {
	names := snapFileNames(sdir)
	for _, name := range names {
		maxEpoch = max(maxEpoch, snapFileEpoch(name))
	}
	for k := len(names) - 1; k >= 0; k-- {
		snap, err := shard.ReadSnapshotFile(filepath.Join(sdir, names[k]))
		if err != nil || snap.Batches > int64(len(batches)) {
			// Corrupt, torn, or ahead of the WAL cut (its batches are not
			// all in the admitted sequence): fail closed to older state.
			continue
		}
		rep, err := p.restoreIndex(ctx, blocks, snap, batches[:snap.Batches])
		if err != nil {
			continue
		}
		return rep, int(snap.Batches), maxEpoch
	}
	return nil, 0, maxEpoch
}
