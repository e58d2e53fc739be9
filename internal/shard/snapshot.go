// Package shard is the machinery of sharded snapshot-swap Index serving:
// immutable epoch-tagged read snapshots, single-writer shard workers that
// absorb insert batches and publish fresh snapshots on a compaction
// policy, hash-based read ownership, and the ordered merge of per-shard
// candidate-pair streams.
//
// The package is deliberately ignorant of BLAST itself. The writable
// side of a shard is any Writer (blast.Index in production, a fake in
// tests); a Snapshot is just the flat per-profile rows of what pruning
// retained. The blast.Server composes shards into the public serving
// API.
//
// Concurrency model: one worker goroutine per shard owns all mutation of
// its Writer; readers only ever touch the shard's current Snapshot,
// obtained through an atomic pointer. A snapshot is immutable from the
// moment it is published, so readers never block on writers and writers
// never wait for readers — a swap simply retires the old snapshot to the
// garbage collector once the last reader drops it.
package shard

import (
	"context"
	"slices"

	"blast/internal/model"
)

// Candidate is one candidate comparison served by a snapshot (and by
// blast.Index / blast.Server, which alias this type): a co-candidate
// profile and the edge weight that retained it.
type Candidate struct {
	// ID is the global profile id of the co-candidate.
	ID int32
	// Weight is the edge weight under the index's weighting scheme.
	Weight float64
}

// CompareCandidates is THE serving order of candidate lists: descending
// weight, ties by ascending id. Every surface that emits candidates
// (snapshot lookups, blast.Index, blast.Server) sorts with this one
// comparator so their outputs stay byte-identical.
func CompareCandidates(a, b Candidate) int {
	switch {
	case a.Weight > b.Weight:
		return -1
	case a.Weight < b.Weight:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// Snapshot is an immutable serving view of a weighted, pruned blocking
// graph — the frozen form of an index: the rows of what pruning
// retained and nothing else. Row u lists (neighbor, weight) for every
// retained comparison of profile u, ascending by neighbor, so each
// retained pair sits once in each endpoint's row; the per-node pruning
// thresholds ride along. The pruned entries of the blocking graph are
// not here: no read needs them, and they are all but a fraction of a
// percent of it under BLAST's pruning. Everything is read-only after
// publication; no method mutates the snapshot.
type Snapshot struct {
	// Epoch tags the publication: the initial snapshot of a shard is
	// epoch 0 and every swap increments it. Within one shard, a higher
	// epoch observes a superset (longer prefix) of the insert sequence.
	Epoch uint64
	// Batches is the snapshot's position in the globally sequenced
	// insert stream: the number of admitted insert batches it covers.
	// Every shard of a server applies the same batch sequence in the
	// same order, so two snapshots from different shards with equal
	// Batches were derived from identical collection states — the
	// cross-shard consistency token of multi-shard reads — and on disk
	// it is the WAL position: recovery adopts a snapshot only at the
	// WAL cut.
	Batches int64
	// NumProfiles is the number of profiles the snapshot covers.
	NumProfiles int
	// NumEdges is the number of distinct comparisons of the blocking
	// graph before pruning — a plain counter; the rows hold only what
	// was retained.
	NumEdges int
	// RetainedPairs is the number of comparisons the pruning retained.
	RetainedPairs int
	// Offsets and Neighbors are the retained rows in CSR form: row i
	// occupies positions [Offsets[i], Offsets[i+1]) of the entry arrays,
	// ascending by neighbor.
	Offsets   []int64
	Neighbors []int32
	// Weights holds the edge weight that retained every entry.
	Weights []float64
	// Theta holds the node-local pruning threshold theta_i per profile;
	// nil for pruning schemes without per-node thresholds.
	Theta []float64
	// PartShards is the shard count of a partitioned snapshot: one whose
	// rows are populated only for the profiles Owner hashes onto
	// PartShard, every other row being empty. 0 (the zero value)
	// marks a full snapshot — every row resident. NumProfiles, NumEdges
	// and RetainedPairs stay GLOBAL under partitioning: a partitioned
	// snapshot answers point reads for its owned rows with whole-graph
	// semantics, its owners having resolved the cross-shard aggregates at
	// export time.
	PartShards int
	// PartShard is this snapshot's shard index in [0, PartShards); 0 for
	// a full snapshot.
	PartShard int
	// Owned is the number of rows Owner hashes onto PartShard, counted
	// once where a partitioned snapshot is made (the exporter's owner
	// table, SliceOwned's row walk, the decoder's shape check) so that
	// OwnedRows — which every Stats call reads — is O(1). Derived, never
	// encoded; unused (0) on a full snapshot.
	Owned int
}

// Owns reports whether a profile's row is resident in this snapshot:
// always, for a full snapshot; by ownership hash, for a partitioned one.
func (s *Snapshot) Owns(profile int32) bool {
	return s.PartShards == 0 || Owner(profile, s.PartShards) == s.PartShard
}

// OwnedRows returns the number of resident rows: NumProfiles for a full
// snapshot, the hash-owned subset (Owned) for a partitioned snapshot.
func (s *Snapshot) OwnedRows() int {
	if s.PartShards == 0 {
		return s.NumProfiles
	}
	return s.Owned
}

// ResidentBytes is the heap footprint of the snapshot's arrays: 12
// bytes a retained entry, plus the full-length Offsets and Theta at 16
// bytes a profile, which partitioning does not divide.
func (s *Snapshot) ResidentBytes() int64 {
	return int64(len(s.Offsets))*8 + int64(len(s.Neighbors))*4 +
		int64(len(s.Weights))*8 + int64(len(s.Theta))*8
}

// SliceOwned carves shard part's partitioned snapshot out of a full
// snapshot: full-length Offsets with rows copied only for the
// owned profiles, global header counters carried over, Theta shared (it
// is full-length and immutable). It is how a server derives its shards'
// initial snapshots from one frozen build — each slice is byte-identical, row for owned row, to
// what the shard's own exchange-driven export would produce over the
// same collection.
func SliceOwned(s *Snapshot, part, nparts int) *Snapshot {
	offsets := make([]int64, s.NumProfiles+1)
	total, owned := int64(0), 0
	for u := 0; u < s.NumProfiles; u++ {
		if Owner(int32(u), nparts) == part {
			total += s.Offsets[u+1] - s.Offsets[u]
			owned++
		}
		offsets[u+1] = total
	}
	neighbors := make([]int32, 0, total)
	weights := make([]float64, 0, total)
	for u := 0; u < s.NumProfiles; u++ {
		if offsets[u+1] == offsets[u] {
			continue
		}
		lo, hi := s.Offsets[u], s.Offsets[u+1]
		neighbors = append(neighbors, s.Neighbors[lo:hi]...)
		weights = append(weights, s.Weights[lo:hi]...)
	}
	return &Snapshot{
		Epoch:         s.Epoch,
		Batches:       s.Batches,
		NumProfiles:   s.NumProfiles,
		NumEdges:      s.NumEdges,
		RetainedPairs: s.RetainedPairs,
		Offsets:       offsets,
		Neighbors:     neighbors,
		Weights:       weights,
		Theta:         s.Theta,
		PartShards:    nparts,
		PartShard:     part,
		Owned:         owned,
	}
}

// Threshold returns theta_i for the threshold-based pruning schemes; 0
// for out-of-range ids or schemes without per-node thresholds.
func (s *Snapshot) Threshold(profile int) float64 {
	if s.Theta == nil || profile < 0 || profile >= len(s.Theta) {
		return 0
	}
	return s.Theta[profile]
}

// AppendCandidates appends the retained candidate comparisons of one
// profile — its row — to buf and returns the extended slice, ordering
// the appended portion by descending weight (ties by ascending id). It
// is THE frozen lookup: a query-only blast.Index and every server read
// end here. Out-of-range profiles append nothing; no allocation occurs
// when buf has capacity.
func (s *Snapshot) AppendCandidates(buf []Candidate, profile int) []Candidate {
	if profile < 0 || profile >= s.NumProfiles {
		return buf
	}
	start := len(buf)
	for p, end := s.Offsets[profile], s.Offsets[profile+1]; p < end; p++ {
		buf = append(buf, Candidate{ID: s.Neighbors[p], Weight: s.Weights[p]})
	}
	slices.SortFunc(buf[start:], CompareCandidates)
	return buf
}

// snapshotCancelCheckEvery is the row granularity at which the pair
// enumeration polls for cancellation; snapshotCancelCheckEdges bounds
// the entries scanned between polls inside one long row.
const (
	snapshotCancelCheckEvery = 1024
	snapshotCancelCheckEdges = 8192
)

// AppendOwnedPairs appends every retained canonical pair (u < v) whose
// smaller endpoint u the caller owns, in ascending (u, v) order — the
// larger-neighbor entries of the owned rows, which is the canonical
// pair order of the batch pipeline restricted to them.
// Partitioning pair emission by the owner of u makes the per-shard
// streams disjoint, so merging them restores exactly the global
// canonical pair list. Polls ctx at row-chunk and edge-segment
// granularity; on cancellation the partial result is discarded.
func (s *Snapshot) AppendOwnedPairs(ctx context.Context, dst []model.IDPair, owns func(profile int32) bool) ([]model.IDPair, error) {
	for u := 0; u < s.NumProfiles; u++ {
		if u%snapshotCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !owns(int32(u)) {
			continue
		}
		end := s.Offsets[u+1]
		for p := s.Offsets[u]; p < end; {
			seg := end - p
			if seg > snapshotCancelCheckEdges {
				seg = snapshotCancelCheckEdges
			}
			for stop := p + seg; p < stop; p++ {
				if v := s.Neighbors[p]; int(v) > u {
					dst = append(dst, model.IDPair{U: int32(u), V: v})
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// Owner maps a profile id onto one of n shards. The hash is a fixed
// multiplicative mix (SplitMix64's first round) so routing is stable
// across processes and uniform even for the dense sequential ids the
// pipeline assigns; plain modulo would stripe ids across shards in lock
// step with insertion order.
func Owner(profile int32, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(uint32(profile)) + 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return int(h % uint64(n))
}
