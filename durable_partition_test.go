package blast

// Durable serving over owned state: the shards export owned rows, the
// server persists the state they join into as one file, and recovery
// adopts that file or rebuilds.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blast/internal/metablocking"
	"blast/internal/shard"
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
	runCases(t, reopenCases("part/", []reopenRow{
		{shards: 1, snap: 1, sync: 1, opt: with(weights.Scheme{Kind: weights.ChiSquared, Entropy: true}, metablocking.BlastWNP)},
		{shards: 2, snap: -1, sync: 1, opt: with(weights.Scheme{Kind: weights.ARCS, Entropy: true}, metablocking.CNP1)},
		{shards: 3, snap: 1, sync: -1, opt: with(weights.Scheme{Kind: weights.ECBS}, metablocking.WEP)},
		{shards: 2, snap: 0, sync: 0, opt: with(weights.Scheme{Kind: weights.JS}, metablocking.CEP)},
		{shards: 4, snap: 1, sync: 1, opt: with(weights.Scheme{Kind: weights.EJS}, metablocking.CNP2)},
	}))
}

// TestDurablePartitionedTornWAL tears the last byte off the log of a
// directory whose drained Close left every shard an at-cut snapshot.
// The log then holds one batch less than the newest snapshot set, which
// must not be adopted: recovery serves exactly the surviving prefix,
// whether from an older set or by the rebuild, and a subtest per shard
// checks that shard was cut back to the prefix too.
func TestDurablePartitionedTornWAL(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const batches = 4
	for _, shards := range []int{2, 3} {
		label := fmt.Sprintf("torn/shards=%d", shards)
		dir := durSeedDir(t, p, shards, 1, batches)
		path := durWalPath(dir)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := durOpen(t, p, dir, shards, 1)
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		checkRecovered(t, label, p, srv, batches-1)
		if shards == 2 {
			checkEveryShard(t, srv, batches-1)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurablePartitionedAdoptionCrossCheck: the at-cut snapshot file of
// a partitioned directory is adopted whole or not at all. It holds every
// row of the state, so a file short of one entry fails its own check,
// and files of a retired layout are refused by name: either way the
// reopen must fall back to the rebuild and serve what a cold build
// serves. The intact file is the control: it is adopted (recovery
// publishes it at the epoch it was persisted under, where a rebuild
// publishes past every file on disk).
func TestDurablePartitionedAdoptionCrossCheck(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards, batches = 2, 4
	// seedDir streams the batches into a fresh directory and closes it,
	// leaving a snapshot at the cut.
	seedDir := func() string {
		dir := t.TempDir()
		srv, err := durOpen(t, p, dir, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < batches; k++ {
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
		names := snapFileNames(durSnapDir(dir))
		if len(names) == 0 {
			t.Fatal("no snapshot persisted")
		}
		return filepath.Join(durSnapDir(dir), names[len(names)-1])
	}
	cases := map[string]func(path string){
		"intact": func(string) {},
		"entry missing": func(path string) {
			own, err := shard.ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			n := len(own.Neighbors)
			if n == 0 {
				t.Fatal("precondition: the state retains nothing")
			}
			offsets := slices.Clone(own.Offsets)
			for u := range offsets {
				offsets[u] = min(offsets[u], int64(n-1))
			}
			short := &shard.Snapshot{
				Epoch: own.Epoch, Batches: own.Batches, NumProfiles: own.NumProfiles,
				NumEdges: own.NumEdges, RetainedPairs: own.RetainedPairs,
				Offsets: offsets, Neighbors: own.Neighbors[:n-1], Weights: own.Weights[:n-1],
				Theta: own.Theta,
			}
			if err := shard.WriteSnapshotFile(path, short); err != nil {
				t.Fatal(err)
			}
			if _, err := shard.ReadSnapshotFile(path); err == nil {
				t.Fatal("a file an entry short of its retained pairs decoded")
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
			dir := seedDir()
			path := newest(dir)
			persisted, _ := snapFileEpoch(filepath.Base(path))
			damage(path)
			srv, err := durOpen(t, p, dir, shards, 1)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkRecovered(t, name, p, srv, batches)
			epoch := srv.Stats()[1].Epoch
			if adopted := epoch == persisted; adopted != (name == "intact") {
				t.Errorf("recovery published epoch %d over a file persisted at %d: adopted = %v", epoch, persisted, adopted)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
