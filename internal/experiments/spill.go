package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"blast"
	"blast/internal/datasets"
)

// SpillRow summarizes one corpus-size point of the beyond-RAM storage
// comparison: the same datagen-streamed corpus is indexed twice, once
// resident (StorageMemory) and once file-backed (StorageFile) under a
// MemoryBudget the corpus exceeds, and the row records the heap each
// build holds at serving time, the on-disk segment footprint, the
// page-cache hit rate of a full candidate sweep, and the differential
// check that the two builds retain identical pairs.
type SpillRow struct {
	Profiles     int   `json:"profiles"`
	GOMAXPROCS   int   `json:"gomaxprocs"`
	MemoryBudget int64 `json:"memory_budget_bytes"`

	// Spilled confirms the corpus actually exceeded the budget (a
	// resident "spill" row would make every other column vacuous).
	Spilled bool `json:"spilled"`
	// SpillBytes is the on-disk segment footprint of the spilled build.
	SpillBytes int64 `json:"spill_bytes"`

	// HeapSpilledBytes / HeapResidentBytes are the live-heap deltas each
	// build holds after a forced GC — the RSS-ceiling claim in process
	// terms: the spilled build's serving heap must come in under the
	// resident build's, because the adjacency entry arrays moved to disk.
	// HeapVsResident is their ratio, the metric the CI gate ceilings.
	HeapSpilledBytes  int64   `json:"heap_spilled_bytes"`
	HeapResidentBytes int64   `json:"heap_resident_bytes"`
	HeapVsResident    float64 `json:"heap_vs_resident"`

	// CacheHitRate is the page-cache hit rate over two full candidate
	// sweeps of the spilled index (the second sweep re-reads pages the
	// first faulted in). Only these serving reads go through the cache;
	// the build's sequential passes read through private page cursors.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// BuildPageLoads / ServePageLoads count the segment frames read back
	// by the cold build (weighting, pruning, freeze) and by the two
	// candidate sweeps (their cache misses).
	BuildPageLoads int64 `json:"build_page_loads"`
	ServePageLoads int64 `json:"serve_page_loads"`

	// PairsMatch records the spilled-vs-resident differential; a
	// divergence fails the experiment rather than annotating the row.
	PairsMatch bool `json:"pairs_match"`
}

// spillBudgetBytes is the per-build adjacency budget. It is deliberately
// tiny against every corpus point so the build spills from early pages —
// the experiment measures beyond-RAM serving, not the budget heuristic.
const spillBudgetBytes = 16 << 10

// Spill measures the file-backed storage mode on datagen-streamed
// corpora of increasing size (default 1500, 3000, 6000 profiles at
// Scale 1). Every corpus exceeds the fixed MemoryBudget, so each point
// compares a genuinely spilled build against the resident twin.
func Spill(cfg Config, sizes []int) ([]SpillRow, error) {
	if len(sizes) == 0 {
		sizes = []int{1500, 3000, 6000}
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

// liveHeap forces a collection and returns the live heap bytes.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
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

	row := SpillRow{
		Profiles:     n,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MemoryBudget: spillBudgetBytes,
	}

	// Resident twin first: record its pairs and serving heap, then drop
	// it so the spilled measurement does not sit on top of it.
	heap0 := liveHeap()
	memIx, err := pMem.BuildIndex(ctx, ds)
	if err != nil {
		return SpillRow{}, err
	}
	row.HeapResidentBytes = liveHeap() - heap0
	memPairs := slices.Clone(memIx.Pairs())
	memIx = nil

	heap0 = liveHeap()
	fileIx, err := pFile.BuildIndex(ctx, ds)
	if err != nil {
		return SpillRow{}, err
	}
	defer fileIx.Close()
	row.HeapSpilledBytes = liveHeap() - heap0
	row.Spilled = fileIx.Spilled()
	_, _, row.BuildPageLoads = fileIx.StorageStats()
	if !row.Spilled {
		return SpillRow{}, fmt.Errorf("corpus of %d profiles stayed under the %d-byte budget", n, int64(spillBudgetBytes))
	}
	if row.HeapResidentBytes > 0 {
		row.HeapVsResident = float64(row.HeapSpilledBytes) / float64(row.HeapResidentBytes)
	}

	// Two full candidate sweeps: the first faults every page in, the
	// second measures how much of the working set the cache holds.
	var buf []blast.Candidate
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < fileIx.NumProfiles(); i++ {
			buf = fileIx.AppendCandidates(buf[:0], i)
		}
	}
	spill, cs, loads := fileIx.StorageStats()
	row.SpillBytes, row.CacheHitRate, row.ServePageLoads = spill, cs.HitRate(), loads-row.BuildPageLoads

	row.PairsMatch = slices.Equal(memPairs, fileIx.Pairs())
	if !row.PairsMatch {
		// The experiment doubles as a real-corpus differential check; a
		// divergence must fail the run (and CI), not annotate a row.
		return SpillRow{}, fmt.Errorf("spilled build diverged from the resident build (%d vs %d pairs)",
			len(fileIx.Pairs()), len(memPairs))
	}
	return row, nil
}

// RenderSpill formats the corpus-size series.
func RenderSpill(rows []SpillRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "beyond-RAM storage: file-backed (spilled) vs resident index build\n")
	fmt.Fprintf(&b, "%9s %12s %8s %12s %12s %12s %9s %8s %11s %11s %7s\n",
		"profiles", "budget", "spilled", "spill bytes", "heap spill", "heap resid", "heap/res", "cache",
		"build loads", "serve loads", "match")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d %12d %8v %12d %12d %12d %8.2fx %7.1f%% %11d %11d %7v\n",
			r.Profiles, r.MemoryBudget, r.Spilled, r.SpillBytes,
			r.HeapSpilledBytes, r.HeapResidentBytes, r.HeapVsResident,
			100*r.CacheHitRate, r.BuildPageLoads, r.ServePageLoads, r.PairsMatch)
	}
	return b.String()
}

// SpillJSON renders the rows as indented JSON (the CI artifact
// BENCH_spill.json).
func SpillJSON(rows []SpillRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
