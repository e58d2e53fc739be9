package blast

// Durable serving under the partitioned topology: per-shard WALs hold
// only owned subsets and snapshots only owned rows, yet recovery must
// land on exactly the state a never-crashed replicated server (and a
// cold rebuild) would serve, and every reassembly disagreement must
// fail closed.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/wal"
)

// durOpenPart opens a durable partitioned server over dir.
func durOpenPart(t *testing.T, p *Pipeline, dir string, shards, snapEvery int) (*Server, error) {
	t.Helper()
	return p.Serve(context.Background(), durDataset(), ServerOptions{
		Shards: shards, Topology: TopologyPartitioned, SwapOps: 2,
		Dir: dir, SnapshotEvery: snapEvery, SyncEvery: 1,
	})
}

// TestDurablePartitionedReopenMatrix is the partitioned mirror of
// TestDurableReopenMatrix: open → stream → close → reopen, two
// generations deep, across shard counts and snapshot policies.
// SnapshotEvery 1 lands reopens on the adoption path (a drained Close
// leaves every shard an at-cut owned snapshot); -1 forces the cold
// master-rebuild path. The reference pairs come from an independent
// replicated server, so every checkpoint is also a cross-topology
// equivalence check.
func TestDurablePartitionedReopenMatrix(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		shards, snapEvery, syncEvery int
	}{
		{1, 1, 1},
		{2, -1, 1},
		{3, 1, -1},
		{2, 0, 0},
		{4, 1, 1},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("part/shards=%d/snap=%d/sync=%d", tc.shards, tc.snapEvery, tc.syncEvery)
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			p, err := NewPipeline(DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sopt := ServerOptions{
				Shards: tc.shards, Topology: TopologyPartitioned, SwapOps: 2,
				Dir: dir, SnapshotEvery: tc.snapEvery, SyncEvery: tc.syncEvery,
			}
			srv, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, label+"/fresh", p, srv, 0)
			durInsert(t, srv, 0, 3)
			checkServerEquivalence(t, label+"/streamed", p, srv)
			if err := srv.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := srv.Pairs(ctx); err != nil {
				t.Fatalf("Pairs after Close: %v", err)
			}

			srv2, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := srv2.Topology(); got != TopologyPartitioned {
				t.Fatalf("recovered topology %v", got)
			}
			checkRecovered(t, label+"/gen1", p, srv2, 3)
			durInsert(t, srv2, 3, 5)
			checkServerEquivalence(t, label+"/gen1-streamed", p, srv2)
			if err := srv2.Close(); err != nil {
				t.Fatalf("close gen1: %v", err)
			}

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

// TestDurablePartitionedTornWAL tears one shard's log tail: the common
// cut must pull every shard back to the surviving prefix, exactly as in
// the replicated torn-WAL contract — under partitioning a lost owned
// subset makes the whole batch unrecoverable, never a partial one.
func TestDurablePartitionedTornWAL(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards, batches = 2, 4
	for _, damaged := range []int{0, shards - 1} {
		t.Run(fmt.Sprintf("shard%d", damaged), func(t *testing.T) {
			dir := t.TempDir()
			srv, err := durOpenPart(t, p, dir, shards, -1)
			if err != nil {
				t.Fatal(err)
			}
			durInsert(t, srv, 0, batches)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "wal", fmt.Sprintf("shard-%03d.wal", damaged))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
				t.Fatal(err)
			}
			srv2, err := durOpenPart(t, p, dir, shards, -1)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkRecovered(t, "torn", p, srv2, batches-1)
			if err := srv2.Close(); err != nil {
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
		srv, err := durOpenPart(t, p, dir, shards, 1)
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
			srv, err := durOpenPart(t, p, dir, shards, 1)
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

// TestDurableTopologyMismatch: a directory journals for exactly one
// topology (the WAL record formats are incompatible), so reopening
// under the other must be refused by the manifest, in both directions.
func TestDurableTopologyMismatch(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	repDir := durSeedDir(t, p, 2, -1, 1)
	if _, err := durOpenPart(t, p, repDir, 2, -1); err == nil ||
		!strings.Contains(err.Error(), "created as") {
		t.Errorf("replicated dir reopened as partitioned: %v", err)
	}
	partDir := t.TempDir()
	srv, err := durOpenPart(t, p, partDir, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	durInsert(t, srv, 0, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := durOpen(t, p, partDir, 2, -1); err == nil ||
		!strings.Contains(err.Error(), "created as") {
		t.Errorf("partitioned dir reopened as replicated: %v", err)
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
