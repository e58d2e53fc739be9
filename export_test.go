package blast

import (
	"blast/internal/datasets"
	"blast/internal/model"
)

// Test-only exports bridging the external test package (blast_test) to
// unexported internals.

// MBKeyForBench exposes mbKey to the benchmark suite.
func MBKeyForBench(i int) string { return mbKey(i) }

// holdCommits blocks every group commit of srv until release is called:
// the call at the head of the write queue waits in the writer's Journal
// before its group closes, and every later call queues behind it, so a
// test can fill the queue deterministically. Reads, View, Quiesce,
// Admitted and WriteStats do not block. Call it with no commit in
// flight.
func holdCommits(srv *Server) (release func()) {
	gate := make(chan struct{})
	srv.w.holdJournal = func() { <-gate }
	return func() { close(gate) }
}

// StreamDataset materializes a datagen stream of n profiles as a dirty
// dataset with its duplicate pairs as ground truth.
func StreamDataset(n int, seed uint64) *model.Dataset {
	s := datasets.NewStream(n, seed)
	e, g := model.NewCollection("stream"), model.NewGroundTruth()
	for i := 0; i < s.Len(); i++ {
		e.Append(s.Profile(i))
		if d, ok := s.Duplicate(i); ok {
			g.Add(d, i)
		}
	}
	return &model.Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: g}
}
