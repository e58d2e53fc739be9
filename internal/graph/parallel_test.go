package graph

import (
	"context"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
)

// The parallel CSR build against the serial edge-list reference on
// registry datasets: node ranges are cut by block-membership mass, so
// the clean-clean, dirty and tiny collections below exercise different
// cuts (and the serial fallback), and every one must reproduce the
// reference's edges and bit-identical accumulators.

func TestBuildParallelMatchesSerial(t *testing.T) {
	ds := datasets.AR1(0.1, 5)
	blocks := blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8)
	serial := edgelist.Build(blocks)
	for _, workers := range []int{2, 3, 4, 8} {
		checkCSRMatchesGraph(t, serial, buildParallel(t, blocks, workers))
	}
}

func TestBuildParallelDirty(t *testing.T) {
	ds := datasets.Census(0.3, 5)
	blocks := blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8)
	checkCSRMatchesGraph(t, edgelist.Build(blocks), buildParallel(t, blocks, 4))
}

func TestBuildParallelSmallInputFallsBack(t *testing.T) {
	blocks := blocking.TokenBlocking(datasets.PaperExample())
	// 4 profiles with 8 workers triggers the serial fallback; the result
	// must still be identical.
	for _, workers := range []int{8, 0, 1} { // 0 = GOMAXPROCS default
		checkCSRMatchesGraph(t, edgelist.Build(blocks), buildParallel(t, blocks, workers))
	}
}

func TestBuildParallelDeterministic(t *testing.T) {
	ds := datasets.PRD(0.2, 9)
	blocks := blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8)
	serial := edgelist.Build(blocks)
	checkCSRMatchesGraph(t, serial, buildParallel(t, blocks, 4))
	checkCSRMatchesGraph(t, serial, buildParallel(t, blocks, 4))
}

// buildParallel builds blocks' CSR on the given number of workers.
func buildParallel(t *testing.T, blocks *blocking.Collection, workers int) *CSR {
	t.Helper()
	g, err := BuildCSRParallelCtx(context.Background(), blocks, workers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
