package blast

// Durable serving over owned state: per-shard WALs hold only owned
// subsets and snapshots only owned rows, so recovery adopts snapshot
// files only as one complete set and every reassembly disagreement
// must fail closed.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/wal"
	"blast/internal/weights"
)

// TestDurablePartitionedReopenMatrix runs the reopen matrix with the
// weighting scheme and pruning algorithm changing from case to case, so
// the owned rows a shard journals and snapshots come from a different
// exchange each time (χ² thresholds, CNP cuts, edge-centric bounds) —
// adopted or rebuilt, every reopen must still land on the cold state.
func TestDurablePartitionedReopenMatrix(t *testing.T) {
	with := func(scheme weights.Scheme, pruning metablocking.Pruning) func(*Options) {
		return func(o *Options) { o.Scheme, o.Pruning = scheme, pruning }
	}
	runReopenMatrix(t, "part/", []reopenCase{
		{1, 1, 1, with(weights.Scheme{Kind: weights.ChiSquared, Entropy: true}, metablocking.BlastWNP)},
		{2, -1, 1, with(weights.Scheme{Kind: weights.ARCS, Entropy: true}, metablocking.CNP1)},
		{3, 1, -1, with(weights.Scheme{Kind: weights.ECBS}, metablocking.WEP)},
		{2, 0, 0, with(weights.Scheme{Kind: weights.JS}, metablocking.CEP)},
		{4, 1, 1, with(weights.Scheme{Kind: weights.EJS}, metablocking.CNP2)},
	})
}

// TestDurablePartitionedTornWAL tears the last byte off one shard's log
// in a directory whose drained Close left every shard an at-cut
// snapshot. The common cut then falls one batch below the newest
// snapshot set, which must not be adopted: recovery serves exactly the
// surviving prefix, whether from an older set or by the rebuild.
func TestDurablePartitionedTornWAL(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards, batches = 2, 4
	for _, damaged := range []int{0, shards - 1} {
		t.Run(fmt.Sprintf("shard%d", damaged), func(t *testing.T) {
			dir := durSeedDir(t, p, shards, 1, batches)
			path := filepath.Join(dir, "wal", fmt.Sprintf("shard-%03d.wal", damaged))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := durOpen(t, p, dir, shards, 1)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkRecovered(t, "torn", p, srv, batches-1)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurablePartitionedAdoptionCrossCheck: the at-cut snapshot files
// of a partitioned directory are adopted as one set or not at all. Each
// file alone can only be checked against its own header; what makes
// them a set is that they agree on the global counters and between them
// hold every retained pair exactly twice. A file of another stream at
// the same cut, and a file short of one entry, pass every check of
// their own — the reopen must fall back to the rebuild and serve what a
// cold build serves; so must one over a shard whose files are all of the
// retired layout. The intact set is the control: it is adopted
// (recovery publishes it at the epoch it was persisted under, where a
// rebuild publishes past every file on disk).
func TestDurablePartitionedAdoptionCrossCheck(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards, batches, victim = 2, 4, 1
	// seedDir streams batches first..first+batches into a fresh directory
	// and closes it, leaving every shard a snapshot at the cut.
	seedDir := func(first int) string {
		dir := t.TempDir()
		srv, err := durOpen(t, p, dir, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := first; k < first+batches; k++ {
			if _, err := srv.InsertAll(ctx, durBatchFor(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	newest := func(dir string) string {
		sdir := durSnapDir(dir, victim)
		names := snapFileNames(sdir)
		if len(names) == 0 {
			t.Fatalf("shard %d persisted no snapshot", victim)
		}
		return filepath.Join(sdir, names[len(names)-1])
	}
	cases := map[string]func(path string){
		"intact": func(string) {},
		"foreign stream": func(path string) {
			foreign, err := shard.ReadSnapshotFile(newest(seedDir(100)))
			if err != nil {
				t.Fatal(err)
			}
			own, err := shard.ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if foreign.Batches != own.Batches || foreign.NumProfiles != own.NumProfiles {
				t.Fatalf("precondition: the foreign file sits at batch %d over %d profiles, the set at %d over %d",
					foreign.Batches, foreign.NumProfiles, own.Batches, own.NumProfiles)
			}
			if err := shard.WriteSnapshotFile(path, foreign); err != nil {
				t.Fatal(err)
			}
			if _, err := shard.ReadSnapshotFile(path); err != nil {
				t.Fatalf("precondition: the foreign file must pass every check of its own: %v", err)
			}
		},
		"entry missing": func(path string) {
			own, err := shard.ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			n := len(own.Neighbors)
			if n == 0 {
				t.Fatalf("precondition: shard %d retains nothing", victim)
			}
			offsets := slices.Clone(own.Offsets)
			for u := range offsets {
				offsets[u] = min(offsets[u], int64(n-1))
			}
			short := &shard.Snapshot{
				Epoch: own.Epoch, Batches: own.Batches, NumProfiles: own.NumProfiles,
				NumEdges: own.NumEdges, RetainedPairs: own.RetainedPairs,
				Offsets: offsets, Neighbors: own.Neighbors[:n-1], Weights: own.Weights[:n-1],
				Theta: own.Theta, PartShards: own.PartShards, PartShard: own.PartShard,
			}
			if err := shard.WriteSnapshotFile(path, short); err != nil {
				t.Fatal(err)
			}
			if _, err := shard.ReadSnapshotFile(path); err != nil {
				t.Fatalf("precondition: the short file must pass every check of its own: %v", err)
			}
		},
		"old layout": func(path string) {
			sdir := filepath.Dir(path)
			for _, name := range snapFileNames(sdir) {
				if err := os.WriteFile(filepath.Join(sdir, name), oldLayoutSnapshot("BLSNAP02"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := shard.ReadSnapshotFile(path); !errors.Is(err, shard.ErrSnapshotVersion) {
				t.Fatalf("old-layout file: %v, want ErrSnapshotVersion", err)
			}
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := seedDir(0)
			path := newest(dir)
			persisted := snapFileEpoch(filepath.Base(path))
			damage(path)
			srv, err := durOpen(t, p, dir, shards, 1)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkRecovered(t, name, p, srv, batches)
			epoch := srv.Stats()[victim].Epoch
			if adopted := epoch == persisted; adopted != (name == "intact") {
				t.Errorf("recovery published epoch %d over a file persisted at %d: adopted = %v", epoch, persisted, adopted)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReassembleOwnedBatches pins the fail-closed reassembly rules on
// hand-crafted per-shard records.
func TestReassembleOwnedBatches(t *testing.T) {
	const n, seed = 2, 0
	rng := stats.NewRNG(7)
	batch := make([]model.Profile, 4)
	for i := range batch {
		batch[i] = synthProfile(rng, fmt.Sprintf("r%d", i))
	}
	encode := func(owns func(int) bool) []byte {
		return wal.AppendOwnedBatch(nil, batch, owns)
	}
	ownedBy := func(sh int) func(int) bool {
		return func(i int) bool { return shard.Owner(int32(seed+i), n) == sh }
	}
	good := [][][]byte{
		{encode(ownedBy(0))},
		{encode(ownedBy(1))},
	}
	out, err := reassembleOwnedBatches(good, 1, seed, n)
	if err != nil {
		t.Fatalf("valid records rejected: %v", err)
	}
	if len(out) != 1 || len(out[0]) != len(batch) {
		t.Fatalf("reassembled %d batches / %d profiles", len(out), len(out[0]))
	}
	for i := range batch {
		if out[0][i].ID != batch[i].ID {
			t.Fatalf("profile %d reassembled as %q, want %q", i, out[0][i].ID, batch[i].ID)
		}
	}

	// Swapped shards: every journaled profile fails the ownership check.
	swapped := [][][]byte{good[1], good[0]}
	if _, err := reassembleOwnedBatches(swapped, 1, seed, n); err == nil {
		t.Error("ownership violation replayed")
	}
	// A shard journaling nothing it owns leaves positions uncovered.
	missing := [][][]byte{
		{encode(ownedBy(0))},
		{encode(func(int) bool { return false })},
	}
	if _, err := reassembleOwnedBatches(missing, 1, seed, n); err == nil {
		t.Error("uncovered batch positions replayed")
	}
	// Disagreeing batch lengths.
	short := wal.AppendOwnedBatch(nil, batch[:3], func(i int) bool { return shard.Owner(int32(seed+i), n) == 1 })
	if _, err := reassembleOwnedBatches([][][]byte{good[0], {short}}, 1, seed, n); err == nil {
		t.Error("diverging batch lengths replayed")
	}
}
