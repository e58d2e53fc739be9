package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"blast"
	"blast/internal/datasets"
)

// SpillRow summarizes one corpus-size point of the beyond-RAM storage
// comparison: the same datagen-streamed corpus is indexed twice, once
// resident (StorageMemory) and once file-backed (StorageFile) under a
// MemoryBudget the corpus exceeds, and the row records the peak heap of
// each build, the on-disk segment footprint, the segment frames read
// back, and the differential check that the two builds retain identical
// pairs. Spill is a build-time representation: both twins end up
// serving from the same resident rows, so it is the builds that are
// compared.
type SpillRow struct {
	Profiles     int   `json:"profiles"`
	GOMAXPROCS   int   `json:"gomaxprocs"`
	MemoryBudget int64 `json:"memory_budget_bytes"`

	// Spilled confirms the build actually wrote segment files (a
	// resident "spill" row would make every other column vacuous).
	Spilled bool `json:"spilled"`
	// SpillBytes is the on-disk segment footprint of the spilled build
	// when its rows were frozen.
	SpillBytes int64 `json:"spill_bytes"`

	// PeakSpilledBytes / PeakResidentBytes are the highest heap-in-use
	// each build reached over the heap it started from (sampled under a
	// tight GC, see peakHeap): the spilled build must stay under the
	// resident one, because its adjacency entries went to disk.
	// PeakVsResident is their ratio, the metric the CI gate ceilings.
	PeakSpilledBytes  int64   `json:"peak_spilled_bytes"`
	PeakResidentBytes int64   `json:"peak_resident_bytes"`
	PeakVsResident    float64 `json:"peak_vs_resident"`

	// BuildPageLoads counts the segment frames the spilled build read
	// back (weighting, pruning and freeze).
	BuildPageLoads int64 `json:"build_page_loads"`

	// PairsMatch records the spilled-vs-resident differential; a
	// divergence fails the experiment rather than annotating the row.
	PairsMatch bool `json:"pairs_match"`
}

// spillBudgetBytes is the per-build adjacency budget. It is deliberately
// tiny against every corpus point so the build spills from early pages —
// the experiment measures the beyond-RAM build, not the budget heuristic.
const spillBudgetBytes = 16 << 10

// Spill measures the file-backed storage mode on datagen-streamed
// corpora of increasing size (default 6000, 12000, 24000 profiles at
// Scale 1). Every corpus exceeds the fixed MemoryBudget, so each point
// compares a genuinely spilled build against the resident twin. A
// spilled pass holds a page (64Ki entries) per worker and stream
// whatever the corpus, a few megabytes in all, so the twins only part
// once the adjacency runs to tens of megabytes: the largest point is
// the one that tells.
func Spill(cfg Config, sizes []int) ([]SpillRow, error) {
	if len(sizes) == 0 {
		sizes = []int{6000, 12000, 24000}
	}
	rows := make([]SpillRow, 0, len(sizes))
	for _, base := range sizes {
		n := int(float64(base) * cfg.Scale)
		if n < 100 {
			n = 100
		}
		row, err := spillOne(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("profiles=%d: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// heapInUse reads the bytes of live and not yet swept heap objects.
func heapInUse() int64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

// peakHeap runs fn and returns the highest heap-in-use a sampler saw
// while it ran, over the collected heap fn started from. The collector
// runs at GOGC=10 meanwhile, so the reading tracks what fn holds live
// rather than garbage awaiting the next cycle; the peaks compared here
// are plateaus (entry arrays, page buffers) many samples long.
func peakHeap(fn func()) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	base := heapInUse()
	peak := base
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, heapInUse())
			}
		}
	}()
	fn()
	close(stop)
	<-done
	// One reading the sampler cannot miss, however few processors it had
	// to run on: what fn leaves behind.
	return max(peak, heapInUse()) - base
}

// spillOne runs one corpus-size point.
func spillOne(cfg Config, n int) (SpillRow, error) {
	ctx := context.Background()
	ds := datasets.NewStream(n, cfg.Seed).Dataset()

	memOpt := blast.DefaultOptions()
	fileOpt := memOpt
	fileOpt.Storage = blast.StorageFile
	fileOpt.MemoryBudget = spillBudgetBytes
	pMem, err := blast.NewPipeline(memOpt)
	if err != nil {
		return SpillRow{}, err
	}
	pFile, err := blast.NewPipeline(fileOpt)
	if err != nil {
		return SpillRow{}, err
	}
	// The twins differ in Phase 3 alone, so one Blocks artifact serves
	// both and only IndexBlocks is measured.
	sch, err := pMem.InduceSchema(ctx, ds)
	if err != nil {
		return SpillRow{}, err
	}
	blocks, err := pMem.Block(ctx, ds, sch)
	if err != nil {
		return SpillRow{}, err
	}

	row := SpillRow{
		Profiles:     n,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MemoryBudget: spillBudgetBytes,
	}
	var memIx, fileIx *blast.Index
	row.PeakResidentBytes = peakHeap(func() { memIx, err = pMem.IndexBlocks(ctx, blocks) })
	if err != nil {
		return SpillRow{}, err
	}
	row.PeakSpilledBytes = peakHeap(func() { fileIx, err = pFile.IndexBlocks(ctx, blocks) })
	if err != nil {
		return SpillRow{}, err
	}
	row.SpillBytes, row.BuildPageLoads = fileIx.StorageStats()
	row.Spilled = row.SpillBytes > 0
	if !row.Spilled {
		return SpillRow{}, fmt.Errorf("corpus of %d profiles stayed under the %d-byte budget", n, int64(spillBudgetBytes))
	}
	if row.PeakResidentBytes > 0 {
		row.PeakVsResident = float64(row.PeakSpilledBytes) / float64(row.PeakResidentBytes)
	}

	row.PairsMatch = slices.Equal(memIx.Pairs(), fileIx.Pairs())
	if !row.PairsMatch {
		// The experiment doubles as a real-corpus differential check; a
		// divergence must fail the run (and CI), not annotate a row.
		return SpillRow{}, fmt.Errorf("spilled build diverged from the resident build (%d vs %d pairs)",
			fileIx.NumRetained(), memIx.NumRetained())
	}
	return row, nil
}

// RenderSpill formats the corpus-size series.
func RenderSpill(rows []SpillRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "beyond-RAM storage: file-backed (spilled) vs resident index build\n")
	fmt.Fprintf(&b, "%9s %12s %8s %12s %12s %12s %9s %11s %7s\n",
		"profiles", "budget", "spilled", "spill bytes", "peak spill", "peak resid", "peak/res",
		"build loads", "match")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d %12d %8v %12d %12d %12d %8.2fx %11d %7v\n",
			r.Profiles, r.MemoryBudget, r.Spilled, r.SpillBytes,
			r.PeakSpilledBytes, r.PeakResidentBytes, r.PeakVsResident,
			r.BuildPageLoads, r.PairsMatch)
	}
	return b.String()
}

// SpillJSON renders the rows as indented JSON (the CI artifact
// BENCH_spill.json).
func SpillJSON(rows []SpillRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
