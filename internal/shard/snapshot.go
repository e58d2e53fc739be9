// Package shard is the machinery of snapshot-swap serving: immutable
// epoch-tagged snapshots of the retained rows, the writer's one queue —
// calls admitted under a bound, group-committed by the call at its head
// and held until applied — and the single worker that drains it into
// the writable index and exports the frozen state on a publication
// policy, hash-based row ownership, the all-gather exchange the parties
// of one partitioned freeze resolve global values over, and JoinOwned,
// which joins the parties' rows into the full snapshot readers are
// served from.
//
// The package is deliberately ignorant of BLAST itself. The writable
// side of a shard is any Writer (the blast package's server writer in
// production, a fake in tests); a Snapshot is just the flat per-profile
// rows of what pruning retained. The blast.Server composes the worker,
// the exchange and the join into the public serving API, and publishes
// every export behind one atomic pointer.
//
// Concurrency model: one worker goroutine owns all mutation of its
// Writer's index and hands every export over through the Publish hook,
// keeping only counters; the admitting goroutine at the head of the
// queue journals each group through the Writer, one at a time. A
// snapshot is immutable from the moment it is handed over, so readers
// never block on writers and writers never wait for readers — a swap
// simply retires the old state to the garbage collector once the last
// reader drops it.
package shard

import (
	"context"
	"fmt"
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
	// Epoch tags the publication: a server's start state keeps the epoch
	// it was built or persisted under (0 for a fresh server) and every
	// publication increments it.
	Epoch uint64
	// Batches is the snapshot's position in the globally sequenced
	// insert stream: the number of admitted insert batches it covers.
	// On disk it is the WAL position: recovery adopts a snapshot only
	// when it sits at the log's record count.
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
	// ascending by neighbor. A party's snapshot populates only the rows it
	// owns; its counters and Theta are global all the same.
	Offsets   []int64
	Neighbors []int32
	// Weights holds the edge weight that retained every entry.
	Weights []float64
	// Theta holds the node-local pruning threshold theta_i per profile;
	// nil for pruning schemes without per-node thresholds.
	Theta []float64
}

// Share returns what partition part of n holds of the snapshot: the
// rows Owner hashes onto it and their footprint, 12 bytes a retained
// entry plus 16 bytes a row (its offset and threshold). A party's rows
// hold exactly its share, so one count serves a party's rows and a full
// state, and the shares of a state's partitions sum to the state's own.
func (s *Snapshot) Share(part, n int) (rows int, bytes int64) {
	entries := int64(0)
	for u := 0; u < s.NumProfiles; u++ {
		if Owner(int32(u), n) == part {
			rows++
			entries += s.Offsets[u+1] - s.Offsets[u]
		}
	}
	return rows, 12*entries + 16*int64(rows)
}

// JoinOwned joins the parties' rows of one freeze into its full
// snapshot: parts[i] is party i's, and every row is taken from the
// party Owner hashes it onto. The counters and Theta are global in
// every part (the parties resolved them together), so they come from
// parts[0]. It refuses parts of different states — another epoch, batch
// position or global counter — and parts whose owned rows do not hold
// every entry they carry, two a retained pair, which is what a part
// joined at another party's index holds.
func JoinOwned(parts []*Snapshot) (*Snapshot, error) {
	n, p0 := len(parts), parts[0]
	np, entries := p0.NumProfiles, int64(0)
	for i, p := range parts {
		if p.Epoch != p0.Epoch || p.Batches != p0.Batches || p.NumProfiles != np || len(p.Offsets) != np+1 ||
			p.NumEdges != p0.NumEdges || p.RetainedPairs != p0.RetainedPairs || len(p.Theta) != len(p0.Theta) {
			return nil, fmt.Errorf("shard: export %d (epoch %d, batch %d, %d profiles) is not of the state of export 0 (epoch %d, batch %d, %d profiles)",
				i, p.Epoch, p.Batches, p.NumProfiles, p0.Epoch, p0.Batches, np)
		}
		entries += int64(len(p.Neighbors))
	}
	offsets := make([]int64, np+1)
	for u := 0; u < np; u++ {
		p := parts[Owner(int32(u), n)]
		offsets[u+1] = offsets[u] + p.Offsets[u+1] - p.Offsets[u]
	}
	if offsets[np] != entries || entries != 2*int64(p0.RetainedPairs) {
		return nil, fmt.Errorf("shard: owned rows hold %d of the %d entries exported for %d retained pairs", offsets[np], entries, p0.RetainedPairs)
	}
	neighbors, weights := make([]int32, entries), make([]float64, entries)
	for u := 0; u < np; u++ {
		p := parts[Owner(int32(u), n)]
		lo, hi := p.Offsets[u], p.Offsets[u+1]
		copy(neighbors[offsets[u]:], p.Neighbors[lo:hi])
		copy(weights[offsets[u]:], p.Weights[lo:hi])
	}
	return &Snapshot{
		Epoch:         p0.Epoch,
		Batches:       p0.Batches,
		NumProfiles:   np,
		NumEdges:      p0.NumEdges,
		RetainedPairs: p0.RetainedPairs,
		Offsets:       offsets,
		Neighbors:     neighbors,
		Weights:       weights,
		Theta:         p0.Theta,
	}, nil
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

// Pairs returns every retained canonical pair (u < v) in ascending
// (u, v) order — the larger-neighbor entries of every row, which is the
// canonical pair order of the batch pipeline. Polls ctx at row-chunk and
// edge-segment granularity; on cancellation the partial result is
// discarded.
func (s *Snapshot) Pairs(ctx context.Context) ([]model.IDPair, error) {
	dst := make([]model.IDPair, 0, s.RetainedPairs)
	for u := 0; u < s.NumProfiles; u++ {
		if u%snapshotCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
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

// Owner maps a profile id onto one of n partitions. The hash is a
// fixed multiplicative mix (SplitMix64's first round) so routing is
// stable across processes and uniform even for the dense sequential ids
// the pipeline assigns; plain modulo would stripe ids across partitions
// in lock step with insertion order.
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
