package shard

import (
	"context"
	"slices"
	"testing"

	"blast/internal/model"
)

func pair(u, v int32) model.IDPair { return model.IDPair{U: u, V: v} }

func TestSnapshotLookups(t *testing.T) {
	// Graph over 3 profiles: 0-1 (w 2.0, retained), 0-2 (w 1.0, pruned —
	// so in no row), 1-2 (w 3.0, retained).
	s := &Snapshot{
		NumProfiles:   3,
		NumEdges:      3,
		RetainedPairs: 2,
		Offsets:       []int64{0, 1, 3, 4},
		Neighbors:     []int32{1, 0, 2, 1},
		Weights:       []float64{2, 2, 3, 3},
		Theta:         []float64{0.5, 1.5, 2.5},
	}
	if got := s.AppendCandidates(nil, 1); len(got) != 2 || got[0].ID != 2 || got[1].ID != 0 {
		t.Fatalf("Candidates(1) = %v (want 2 desc-weight entries: id 2 then id 0)", got)
	}
	if got := s.AppendCandidates(nil, 0); len(got) != 1 || got[0] != (Candidate{ID: 1, Weight: 2}) {
		t.Fatalf("Candidates(0) = %v", got)
	}
	for _, bad := range []int{-1, 3, 1 << 20} {
		if got := s.AppendCandidates(nil, bad); len(got) != 0 {
			t.Errorf("Candidates(%d) = %v, want empty", bad, got)
		}
		if got := s.Threshold(bad); got != 0 {
			t.Errorf("Threshold(%d) = %v, want 0", bad, got)
		}
	}
	if got := s.Threshold(2); got != 2.5 {
		t.Errorf("Threshold(2) = %v", got)
	}

	all, err := s.Pairs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := []model.IDPair{pair(0, 1), pair(1, 2)}; !slices.Equal(all, want) {
		t.Fatalf("pairs = %v, want %v", all, want)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Pairs(cancelled); err != context.Canceled {
		t.Fatalf("cancelled enumeration err = %v", err)
	}
}

// ownedExport is shard part's export of a full snapshot, the way a
// partitioned writer makes it: the rows Owner hashes onto the part, every
// other row empty, the counters and thresholds global.
func ownedExport(s *Snapshot, part, n int) *Snapshot {
	e := &Snapshot{
		Epoch: s.Epoch, Batches: s.Batches, NumProfiles: s.NumProfiles, NumEdges: s.NumEdges,
		RetainedPairs: s.RetainedPairs, Offsets: make([]int64, s.NumProfiles+1), Theta: s.Theta,
	}
	for u := 0; u < s.NumProfiles; u++ {
		if lo, hi := s.Offsets[u], s.Offsets[u+1]; Owner(int32(u), n) == part {
			e.Neighbors = append(e.Neighbors, s.Neighbors[lo:hi]...)
			e.Weights = append(e.Weights, s.Weights[lo:hi]...)
		}
		e.Offsets[u+1] = int64(len(e.Neighbors))
	}
	return e
}

func ownedExports(s *Snapshot, n int) []*Snapshot {
	parts := make([]*Snapshot, n)
	for i := range parts {
		parts[i] = ownedExport(s, i, n)
	}
	return parts
}

// TestJoinOwnedRefusesMismatchedParts: the exports of one state join
// back into it at every shard count, and parts that are not one state's
// — another epoch, batch position or global counter, or an export at
// another shard's index — are refused, never joined.
func TestJoinOwnedRefusesMismatchedParts(t *testing.T) {
	full := sampleSnapshot(true)
	for n := 1; n <= 4; n++ {
		joined, err := JoinOwned(ownedExports(full, n))
		if err != nil {
			t.Fatalf("%d parts: %v", n, err)
		}
		if !equalSnapshots(full, joined) {
			t.Fatalf("%d parts joined into %+v, want %+v", n, joined, full)
		}
	}
	const n = 3
	for name, mismatch := range map[string]func(parts []*Snapshot){
		"epoch":          func(parts []*Snapshot) { parts[1].Epoch++ },
		"batch position": func(parts []*Snapshot) { parts[2].Batches++ },
		"edge count":     func(parts []*Snapshot) { parts[1].NumEdges++ },
		"retained pairs": func(parts []*Snapshot) { parts[0].RetainedPairs-- },
		"profile count":  func(parts []*Snapshot) { parts[2].NumProfiles-- },
		"thresholds":     func(parts []*Snapshot) { parts[1].Theta = nil },
		// Every part moves, so the entries of some part land in rows it
		// does not own.
		"shard index": func(parts []*Snapshot) { parts[0], parts[1], parts[2] = parts[1], parts[2], parts[0] },
		"foreign entry": func(parts []*Snapshot) {
			parts[0] = ownedExport(full, 0, n)
			parts[0].Neighbors, parts[0].Weights = append(parts[0].Neighbors, 2), append(parts[0].Weights, 1)
		},
	} {
		parts := ownedExports(full, n)
		mismatch(parts)
		if joined, err := JoinOwned(parts); err == nil {
			t.Errorf("%s: mismatched parts joined into %+v", name, joined)
		}
	}
}
