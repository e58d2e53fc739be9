package shard

import (
	"context"
	"slices"
	"testing"

	"blast/internal/model"
)

func pair(u, v int32) model.IDPair { return model.IDPair{U: u, V: v} }

func TestMergePairs(t *testing.T) {
	cases := []struct {
		name  string
		parts [][]model.IDPair
		want  []model.IDPair
	}{
		{"empty", nil, nil},
		{"all-empty", [][]model.IDPair{nil, {}}, nil},
		{"single", [][]model.IDPair{{pair(0, 1), pair(2, 3)}}, []model.IDPair{pair(0, 1), pair(2, 3)}},
		{
			"interleave",
			[][]model.IDPair{
				{pair(0, 2), pair(3, 4)},
				{pair(0, 1), pair(1, 2), pair(5, 6)},
				{pair(0, 3)},
			},
			[]model.IDPair{pair(0, 1), pair(0, 2), pair(0, 3), pair(1, 2), pair(3, 4), pair(5, 6)},
		},
		{
			"dedup",
			[][]model.IDPair{
				{pair(0, 1), pair(2, 3)},
				{pair(0, 1), pair(2, 3)},
			},
			[]model.IDPair{pair(0, 1), pair(2, 3)},
		},
		{
			"same-u-different-v",
			[][]model.IDPair{
				{pair(1, 5)},
				{pair(1, 2), pair(1, 9)},
			},
			[]model.IDPair{pair(1, 2), pair(1, 5), pair(1, 9)},
		},
	}
	for _, tc := range cases {
		if got := MergePairs(tc.parts); !slices.Equal(got, tc.want) {
			t.Errorf("%s: MergePairs = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMergePairsDuplicateRunsAcrossShards exercises the misconfigured
// fan-out path documented on MergePairs — overlapping (non-disjoint)
// streams — with interleaved duplicate runs across more than two
// shards, including cursors that exhaust mid-run while other shards
// keep producing duplicates of the exhausted shard's tail.
func TestMergePairsDuplicateRunsAcrossShards(t *testing.T) {
	cases := []struct {
		name  string
		parts [][]model.IDPair
		want  []model.IDPair
	}{
		{
			// Three shards share a duplicate run 2..4; shard 0 exhausts
			// exactly at the end of the run while the others continue.
			"exhaust-at-run-end",
			[][]model.IDPair{
				{pair(0, 2), pair(0, 3), pair(0, 4)},
				{pair(0, 2), pair(0, 3), pair(0, 4), pair(1, 2)},
				{pair(0, 3), pair(0, 4), pair(1, 2), pair(1, 3)},
			},
			[]model.IDPair{pair(0, 2), pair(0, 3), pair(0, 4), pair(1, 2), pair(1, 3)},
		},
		{
			// Four shards, duplicate runs interleaved with private pairs:
			// every pop must pick the global minimum even while several
			// cursors sit on identical heads.
			"interleaved-runs-4-shards",
			[][]model.IDPair{
				{pair(0, 1), pair(2, 3), pair(2, 4), pair(9, 9)},
				{pair(0, 1), pair(1, 2), pair(2, 4)},
				{pair(1, 2), pair(2, 3), pair(2, 4), pair(5, 6)},
				{pair(0, 1), pair(2, 4), pair(5, 6), pair(9, 9)},
			},
			[]model.IDPair{pair(0, 1), pair(1, 2), pair(2, 3), pair(2, 4), pair(5, 6), pair(9, 9)},
		},
		{
			// A shard that is a strict prefix of another, twice over: its
			// cursor exhausts first and must simply drop out of the scan.
			"prefix-shards",
			[][]model.IDPair{
				{pair(1, 2)},
				{pair(1, 2), pair(1, 3)},
				{pair(1, 2), pair(1, 3), pair(1, 4)},
			},
			[]model.IDPair{pair(1, 2), pair(1, 3), pair(1, 4)},
		},
		{
			// Identical streams on every shard: maximal duplication, the
			// merge must collapse to one copy.
			"all-identical",
			[][]model.IDPair{
				{pair(0, 1), pair(0, 2), pair(3, 4)},
				{pair(0, 1), pair(0, 2), pair(3, 4)},
				{pair(0, 1), pair(0, 2), pair(3, 4)},
				{pair(0, 1), pair(0, 2), pair(3, 4)},
			},
			[]model.IDPair{pair(0, 1), pair(0, 2), pair(3, 4)},
		},
	}
	for _, tc := range cases {
		if got := MergePairs(tc.parts); !slices.Equal(got, tc.want) {
			t.Errorf("%s: MergePairs = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMergePairsRandomizedOverlap drives MergePairs against a naive
// reference (concatenate, sort, dedup) on randomized overlapping shard
// streams — each shard holds a sorted sample of a shared pair universe,
// so duplicate runs and staggered exhaustion arise constantly.
func TestMergePairsRandomizedOverlap(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 200; trial++ {
		universe := make([]model.IDPair, 0, 24)
		for u := 0; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				universe = append(universe, pair(int32(u), int32(v)))
			}
		}
		shards := 3 + next(3) // 3..5, always > 2
		parts := make([][]model.IDPair, shards)
		for s := range parts {
			for _, p := range universe {
				if next(3) != 0 { // ~2/3 overlap between shards
					parts[s] = append(parts[s], p)
				}
			}
		}
		seen := make(map[model.IDPair]bool)
		var want []model.IDPair
		for _, p := range universe { // universe is already canonical order
			for _, part := range parts {
				if slices.Contains(part, p) && !seen[p] {
					seen[p] = true
					want = append(want, p)
				}
			}
		}
		if got := MergePairs(parts); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d shards): MergePairs = %v, want %v", trial, shards, got, want)
		}
	}
}

func TestMergePairsDoesNotAliasSingleInput(t *testing.T) {
	in := []model.IDPair{pair(0, 1)}
	out := MergePairs([][]model.IDPair{in})
	out[0] = pair(9, 9)
	if in[0] != pair(0, 1) {
		t.Error("MergePairs aliased its single input")
	}
}

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

	all, err := s.AppendOwnedPairs(context.Background(), nil, func(int32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if want := []model.IDPair{pair(0, 1), pair(1, 2)}; !slices.Equal(all, want) {
		t.Fatalf("owned pairs = %v, want %v", all, want)
	}
	// Owner partitioning covers every pair exactly once after a merge.
	parts := make([][]model.IDPair, 2)
	for i := range parts {
		parts[i], err = s.AppendOwnedPairs(context.Background(), nil, func(u int32) bool { return Owner(u, 2) == i })
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := MergePairs(parts); !slices.Equal(got, all) {
		t.Fatalf("merged owner partition = %v, want %v", got, all)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AppendOwnedPairs(cancelled, nil, func(int32) bool { return true }); err != context.Canceled {
		t.Fatalf("cancelled enumeration err = %v", err)
	}
}
