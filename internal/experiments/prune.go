package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/weights"
)

// PruneRow measures one streaming pruning scheme at one worker count on
// one registry dataset: wall-clock of the full pruning (thresholds /
// histogram selection + retention emission), allocation during the
// pass, and the speedup over the serial (Workers = 1) run of the same
// scheme. EqualSerial records the determinism contract — the retained
// pairs must be byte-identical to the serial run — and is gated by
// cmd/benchdiff, as is the speedup floor on multi-core hosts.
type PruneRow struct {
	Dataset     string        `json:"dataset"`
	Pruning     string        `json:"pruning"`
	Workers     int           `json:"workers"`
	Edges       int           `json:"edges"`
	Retained    int           `json:"retained_pairs"`
	PruneTime   time.Duration `json:"prune_ns"`
	SpeedupVs1  float64       `json:"speedup_vs_1"`
	AllocBytes  uint64        `json:"alloc_bytes"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	EqualSerial bool          `json:"equal_serial"`
}

// pruneWorkerCounts is the Workers series of the experiment; the last
// entry is the one the benchdiff speedup floor judges.
var pruneWorkerCounts = []int{1, 2, 4}

// prunePrunings are the schemes the experiment times: BLAST's own
// pruning (threshold + retention passes), the two global schemes whose
// scratch the histogram cut eliminated, and one cardinality node
// scheme (selection-cut + retention passes).
var prunePrunings = []metablocking.Pruning{
	metablocking.BlastWNP, metablocking.WEP, metablocking.CEP, metablocking.CNP1,
}

// pruneReps re-runs each timed pass and keeps the minimum, damping
// scheduler noise without inflating the experiment's runtime.
const pruneReps = 3

// Prune benchmarks the parallel streaming pruning schemes on one
// registry dataset (default dbp, the largest): the blocking graph is
// built and weighted once, then every Pruning x Workers cell times
// metablocking.PruneCSR over the shared CSR and byte-compares its
// output against the serial run of the same scheme.
func Prune(cfg Config, name string) ([]PruneRow, error) {
	if name == "" {
		name = "dbp"
	}
	ds, err := cfg.load(name)
	if err != nil {
		return nil, err
	}
	c := blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8)
	csr := graph.BuildCSRParallel(c, 0)
	weights.Blast().ApplyCSR(csr)
	csr.ReleaseStats()

	ctx := context.Background()
	var out []PruneRow
	for _, pruning := range prunePrunings {
		mcfg := metablocking.Config{Scheme: weights.Blast(), Pruning: pruning, C: 2, D: 2}
		var serialPairs []model.IDPair
		var serialTime time.Duration
		for _, workers := range pruneWorkerCounts {
			mcfg.Workers = workers
			var best time.Duration
			var pairs []model.IDPair
			var alloc uint64
			for rep := 0; rep < pruneReps; rep++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				p, err := metablocking.PruneCSR(ctx, csr, mcfg)
				d := time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/workers=%d: %w", name, pruning, workers, err)
				}
				runtime.ReadMemStats(&m1)
				if rep == 0 {
					pairs = p
					alloc = m1.TotalAlloc - m0.TotalAlloc
					best = d
				} else if d < best {
					best = d
				}
			}
			row := PruneRow{
				Dataset:    name,
				Pruning:    pruning.String(),
				Workers:    workers,
				Edges:      csr.NumEdges(),
				Retained:   len(pairs),
				PruneTime:  best,
				AllocBytes: alloc,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			}
			if workers == 1 {
				serialPairs, serialTime = pairs, best
				row.SpeedupVs1 = 1
				row.EqualSerial = true
			} else {
				row.EqualSerial = slices.Equal(pairs, serialPairs)
				if best > 0 {
					row.SpeedupVs1 = float64(serialTime) / float64(best)
				}
				if !row.EqualSerial {
					// The experiment doubles as a real-dataset differential
					// check; a divergence must fail the run, not just
					// annotate a row.
					return nil, fmt.Errorf("%s/%v: workers=%d diverged from the serial scheme (%d vs %d pairs)",
						name, pruning, workers, len(pairs), len(serialPairs))
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// RenderPrune formats the parallel-pruning series.
func RenderPrune(name string, rows []PruneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "parallel streaming pruning on %s (shared weighted CSR, GOMAXPROCS=%d)\n",
		name, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-10s %8s %10s %9s %12s %9s %12s %6s\n",
		"pruning", "workers", "edges", "pairs", "prune", "speedup", "alloc", "equal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %10d %9d %12s %8.2fx %12d %6v\n",
			r.Pruning, r.Workers, r.Edges, r.Retained,
			r.PruneTime.Round(time.Microsecond), r.SpeedupVs1, r.AllocBytes, r.EqualSerial)
	}
	return b.String()
}

// PruneJSON renders the rows as indented JSON (the CI artifact
// BENCH_prune.json).
func PruneJSON(rows []PruneRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
