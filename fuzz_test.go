package blast

// Fuzzing the sharded snapshot-swap server: the fuzz input drives a
// randomized sequence of insert / quiesce(compact+swap) / read
// operations against a Server, with a single Index fed the identical
// stream as the model (an Index re-freezes over its live collection on
// the read after an insert, so it is a cold IndexBlocks over the union
// collection by construction). Registered in CI's fuzz smoke matrix.

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/model"
	"blast/internal/stats"
)

func FuzzSnapshotSwap(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 255, 19, 4, 4, 4, 200, 1, 13, 13})
	f.Add([]byte{250, 9, 31, 64, 128, 2, 90, 17, 6, 44, 91, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		ctx := context.Background()
		// Derive configuration and the synthetic stream from the input.
		seed := uint64(len(data)) * 1099511628211
		for _, b := range data {
			seed = (seed ^ uint64(b)) * 1099511628211
		}
		rng := stats.NewRNG(seed | 1)
		shards := 1 + int(data[0])%4
		// [-1, 6]: -1 disables the op-count trigger (swaps then happen
		// only through Quiesce), the rest are aggressive cadences that
		// churn snapshots mid-sequence.
		swapOps := int(data[len(data)-1])%8 - 1

		ds := synthDirty(rng, 16+rng.Intn(16))
		p, err := NewPipeline(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := p.Serve(ctx, ds, ServerOptions{Shards: shards, SwapOps: swapOps})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ref, err := p.BuildIndex(ctx, synthDirtyClone(ds))
		if err != nil {
			t.Fatal(err)
		}

		streamed := 0
		for _, b := range data {
			switch b % 4 {
			case 0: // quiesce: compact + swap every shard
				if err := srv.Quiesce(ctx); err != nil {
					t.Fatal(err)
				}
			case 3: // read probe (must never panic, any epoch)
				id := int(b>>2) % (srv.Admitted() + 2)
				srv.Candidates(id)
				srv.Threshold(id)
				if _, err := srv.Pairs(ctx); err != nil {
					t.Fatal(err)
				}
			default: // insert batch
				n := 1 + int(b>>4)%3
				profs := make([]model.Profile, n)
				for i := range profs {
					profs[i] = synthProfile(rng, fmt.Sprintf("f%d", streamed+i))
				}
				ids, err := srv.InsertAll(ctx, profs)
				if err != nil {
					t.Fatal(err)
				}
				refIDs, err := ref.InsertAll(ctx, profs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ids {
					if ids[i] != refIDs[i] {
						t.Fatalf("id drift at %d: server %d, model %d", streamed+i, ids[i], refIDs[i])
					}
				}
				streamed += n
			}
		}
		if err := srv.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		got, err := srv.Pairs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePairs(t, "fuzz pairs", ref.Pairs(), got)
		n := ref.NumProfiles()
		if srv.NumProfiles() != n {
			t.Fatalf("NumProfiles = %d, want %d", srv.NumProfiles(), n)
		}
		var want, have []Candidate
		for i := 0; i < n; i++ {
			if ref.Threshold(i) != srv.Threshold(i) {
				t.Fatalf("Threshold(%d) = %v, want %v", i, srv.Threshold(i), ref.Threshold(i))
			}
			want = ref.AppendCandidates(want[:0], i)
			have = srv.AppendCandidates(have[:0], i)
			if len(want) != len(have) {
				t.Fatalf("Candidates(%d): %d, want %d", i, len(have), len(want))
			}
			for k := range want {
				if want[k] != have[k] {
					t.Fatalf("Candidates(%d)[%d] = %+v, want %+v", i, k, have[k], want[k])
				}
			}
		}
	})
}

// synthDirtyClone deep-copies a synthetic dirty dataset so the server
// and the model index never share mutable collection state.
func synthDirtyClone(ds *model.Dataset) *model.Dataset {
	e := model.NewCollection(ds.E1.Name)
	for i := range ds.E1.Profiles {
		p := ds.E1.Profiles[i]
		p.Pairs = append([]model.Pair(nil), p.Pairs...)
		e.Append(p)
	}
	return &model.Dataset{Name: ds.Name, Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
}
