// Command benchdiff is the CI benchmark-regression gate: it compares
// the benchmark artifacts of the current run (BENCH_query.json,
// BENCH_serve.json, BENCH_prune.json, BENCH_recover.json,
// BENCH_load.json, BENCH_partition.json, BENCH_spill.json) against
// committed baselines and fails when a gated metric regresses beyond
// the threshold.
//
// Gated metrics:
//
//   - query: per-dataset Candidates p50 latency must not grow more than
//     threshold (default 25%) over the baseline.
//   - serve: per-configuration read throughput must not shrink more
//     than threshold, and the read-throughput scaling of the largest
//     shard count over one shard must reach -min-serve-scaling
//     (default 2.0). The scaling floor is only enforced when the host
//     recorded in the artifact has at least -min-scaling-procs CPUs
//     (default 4): scaling is bounded by available parallelism, so
//     enforcing 2x on a 1-core runner would gate on the hardware, not
//     the code.
//   - prune: per-cell (dataset/pruning/workers) prune time must not
//     grow more than threshold; every current row must be byte-equal to
//     its serial run (EqualSerial); and the best speedup at the largest
//     worker count must reach -min-prune-speedup (default 2.0), again
//     only on hosts with at least -min-scaling-procs CPUs.
//   - recover: per-cell (dataset/mode/shards) crash-recovery time must
//     not grow more than threshold, and every current row must report
//     Match=true — a recovered server that diverges from the pre-crash
//     state is a named failure regardless of timing.
//   - load: per-cell (dataset/clients/shards) HTTP insert throughput
//     must not shrink and read p99 must not grow more than threshold,
//     and every current row must report Match=true — an HTTP front end
//     whose response bytes diverge from the in-process Server calls it
//     fronts is a named failure regardless of timing.
//   - spill: every baseline corpus point (profiles) must be present;
//     every current row must report Spilled=true and PairsMatch=true —
//     a "spill" row that never left RAM, or a spilled build whose
//     retained pairs diverge from the resident build, is a named
//     failure regardless of the numbers; and the largest corpus point's
//     peak build heap must come in at or under -max-spill-heap (default
//     0.5) of its resident twin — a spilled build whose heap tracks the
//     resident one is not actually building beyond RAM. (Both twins
//     serve from the same resident rows, so there is no serving-side
//     comparison.)
//   - partition: per-cell (dataset/shards) write throughput must not
//     shrink more than threshold; every current row must report
//     PairsMatch=true; and the per-shard resident memory at the largest
//     shard count must come in at or under -max-partition-mem (default
//     0.6) of its 1-shard row — shards own disjoint row slices, so flat per-shard
//     memory means the partitioning is not actually partitioning. (A
//     shard holds its owned rows of what pruning retained plus the
//     full-length offsets and thresholds, 16 bytes a profile, which no
//     shard count divides; the ceiling holds while rows outweigh them.) The
//     memory ceiling is only enforced when the artifact's host has at
//     least -min-scaling-procs CPUs, keeping the gate on the same
//     runner class as the other structural floors.
//
// Degenerate artifact values — zero, negative, NaN or Inf where a
// latency, throughput, speedup or scaling factor belongs — are a named
// failure in either direction (baseline or current): a broken artifact
// must fail the gate loudly, never produce an Inf/NaN ratio that
// silently passes it.
//
// A missing baseline file skips its checks with a note (so a newly
// introduced artifact does not fail the gate before its baseline is
// committed); a missing current file fails. Baselines live in
// bench/baselines/ and should be regenerated on the same runner class
// that executes CI whenever a deliberate performance change lands:
//
//	go run ./cmd/blastbench -exp query -scale 0.5 -json > bench/baselines/BENCH_query.json
//	go run ./cmd/blastbench -exp serve -scale 0.5 -json > bench/baselines/BENCH_serve.json
//	go run ./cmd/blastbench -exp prune -scale 0.5 -json > bench/baselines/BENCH_prune.json
//	go run ./cmd/blastbench -exp recover -scale 0.5 -json > bench/baselines/BENCH_recover.json
//	go run ./cmd/blastbench -exp load -scale 0.5 -json > bench/baselines/BENCH_load.json
//	go run ./cmd/blastbench -exp partition -scale 0.5 -json > bench/baselines/BENCH_partition.json
//	go run ./cmd/blastbench -exp spill -scale 0.5 -json > bench/baselines/BENCH_spill.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"blast/internal/experiments"
)

func main() {
	baseDir := flag.String("baseline", "bench/baselines", "directory of committed baseline artifacts")
	curDir := flag.String("current", ".", "directory of freshly generated artifacts")
	threshold := flag.Float64("threshold", 0.25, "allowed relative regression per metric")
	minScaling := flag.Float64("min-serve-scaling", 2.0, "required read-throughput scaling, largest shard count vs 1")
	minPrune := flag.Float64("min-prune-speedup", 2.0, "required pruning speedup at the largest worker count vs serial")
	minProcs := flag.Int("min-scaling-procs", 4, "minimum GOMAXPROCS recorded in the artifact for the scaling and speedup floors to be enforced")
	maxPartMem := flag.Float64("max-partition-mem", 0.6, "ceiling on partitioned per-shard memory at the largest shard count, as a fraction of the 1-shard row")
	maxSpillHeap := flag.Float64("max-spill-heap", 0.5, "ceiling on the spilled build's peak heap at the largest corpus point, as a fraction of the resident twin")
	flag.Parse()

	failures, err := run(os.Stdout, *baseDir, *curDir, *threshold, *minScaling, *minPrune, *maxPartMem, *maxSpillHeap, *minProcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed beyond the gate\n", failures)
		os.Exit(1)
	}
}

// degenerateNote classifies a metric value no gate can reason about:
// latencies, throughputs, speedups and scaling factors are all strictly
// positive finite numbers in a healthy artifact.
func degenerateNote(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 0):
		return "Inf"
	case v <= 0:
		return "non-positive"
	}
	return ""
}

// gated builds the check for one metric pair. lowerIsBetter selects the
// direction: latencies gate growth, speedups and throughputs gate
// shrinkage. Degenerate values on either side are a named failure — a
// zero or NaN baseline would otherwise make the ratio vacuous and pass
// any current value through the gate.
func gated(metric string, base, cur, threshold float64, lowerIsBetter bool) check {
	c := check{metric: metric, baseline: base, current: cur}
	if bad := degenerateNote(base); bad != "" {
		c.note = "degenerate baseline (" + bad + ")"
		return c
	}
	if bad := degenerateNote(cur); bad != "" {
		c.note = "degenerate current (" + bad + ")"
		return c
	}
	if lowerIsBetter {
		c.ok = cur <= base*(1+threshold)
	} else {
		c.ok = cur >= base*(1-threshold)
	}
	return c
}

// floorCheck builds the check for a metric judged against an absolute
// floor over the current run alone (serve's shard scaling, prune's
// worker speedup) rather than against a baseline. Degenerate values
// fail by name, like gated.
func floorCheck(metric string, floor, cur float64) check {
	c := check{metric: metric, baseline: floor, current: cur}
	if bad := degenerateNote(cur); bad != "" {
		c.note = "degenerate current (" + bad + ")"
		return c
	}
	c.ok = cur >= floor
	c.note = "floor, not baseline"
	return c
}

// ceilingCheck is floorCheck's mirror for metrics that must come in AT
// OR UNDER an absolute bound over the current run alone (the
// partitioned per-shard memory fraction).
func ceilingCheck(metric string, ceiling, cur float64) check {
	c := check{metric: metric, baseline: ceiling, current: cur}
	if bad := degenerateNote(cur); bad != "" {
		c.note = "degenerate current (" + bad + ")"
		return c
	}
	c.ok = cur <= ceiling
	c.note = "ceiling, not baseline"
	return c
}

// loadJSON decodes one artifact into rows; (nil, nil) when the file
// does not exist.
func loadJSON[T any](dir, name string) ([]T, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []T
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rows, nil
}

// check is one gated comparison, rendered as a report line.
type check struct {
	metric   string
	baseline float64
	current  float64
	ok       bool
	note     string
}

func run(w io.Writer, baseDir, curDir string, threshold, minScaling, minPrune, maxPartMem, maxSpillHeap float64, minProcs int) (failures int, err error) {
	var checks []check
	add := func(c check) {
		checks = append(checks, c)
		if !c.ok {
			failures++
		}
	}

	// query: p50 must not grow beyond (1+threshold)x.
	baseQ, err := loadJSON[experiments.QueryRow](baseDir, "BENCH_query.json")
	if err != nil {
		return 0, err
	}
	if baseQ == nil {
		fmt.Fprintln(w, "query: no baseline, skipped")
	} else {
		curQ, err := loadJSON[experiments.QueryRow](curDir, "BENCH_query.json")
		if err != nil {
			return 0, err
		}
		if curQ == nil {
			return 0, fmt.Errorf("missing current BENCH_query.json (baseline exists)")
		}
		cur := make(map[string]experiments.QueryRow, len(curQ))
		for _, r := range curQ {
			cur[r.Dataset] = r
		}
		for _, b := range baseQ {
			c, found := cur[b.Dataset]
			if !found {
				add(check{metric: "query/" + b.Dataset + " p50", baseline: float64(b.P50), ok: false, note: "dataset missing from current run"})
				continue
			}
			add(gated("query/"+b.Dataset+" p50 ns", float64(b.P50), float64(c.P50), threshold, true))
		}
	}

	// serve: per-configuration read throughput vs baseline, plus the
	// scaling floor over the current run alone.
	baseS, err := loadJSON[experiments.ServeRow](baseDir, "BENCH_serve.json")
	if err != nil {
		return 0, err
	}
	curS, err := loadJSON[experiments.ServeRow](curDir, "BENCH_serve.json")
	if err != nil {
		return 0, err
	}
	if baseS == nil {
		fmt.Fprintln(w, "serve: no baseline, throughput comparison skipped")
	} else {
		if curS == nil {
			return 0, fmt.Errorf("missing current BENCH_serve.json (baseline exists)")
		}
		key := func(r experiments.ServeRow) string {
			return fmt.Sprintf("%s/%s/shards=%d", r.Dataset, r.Mode, r.Shards)
		}
		cur := make(map[string]experiments.ServeRow, len(curS))
		for _, r := range curS {
			cur[key(r)] = r
		}
		for _, b := range baseS {
			c, found := cur[key(b)]
			if !found {
				add(check{metric: "serve/" + key(b) + " reads/s", baseline: b.ReadThroughput, ok: false, note: "configuration missing from current run"})
				continue
			}
			add(gated("serve/"+key(b)+" reads/s", b.ReadThroughput, c.ReadThroughput, threshold, false))
		}
	}
	if curS != nil {
		// The scaling floor judges only the current run: find the
		// largest-shard-count server row.
		var top *experiments.ServeRow
		for i := range curS {
			r := &curS[i]
			if r.Mode == "server" && (top == nil || r.Shards > top.Shards) {
				top = r
			}
		}
		switch {
		case top == nil || top.Shards <= 1:
			fmt.Fprintln(w, "serve: no multi-shard row, scaling floor skipped")
		case top.GOMAXPROCS < minProcs:
			fmt.Fprintf(w, "serve: scaling floor skipped (GOMAXPROCS %d < %d; scaling is parallelism-bound)\n", top.GOMAXPROCS, minProcs)
		default:
			add(floorCheck(fmt.Sprintf("serve/%s scaling %d vs 1 shard", top.Dataset, top.Shards),
				minScaling, top.ScalingVs1))
		}
	}

	// prune: per-cell prune time vs baseline, the serial/parallel
	// byte-equality flag, and the speedup floor over the current run
	// alone (like the serve scaling floor, enforced only on hosts with
	// enough CPUs to make the floor about the code).
	baseP, err := loadJSON[experiments.PruneRow](baseDir, "BENCH_prune.json")
	if err != nil {
		return 0, err
	}
	curP, err := loadJSON[experiments.PruneRow](curDir, "BENCH_prune.json")
	if err != nil {
		return 0, err
	}
	if baseP == nil {
		fmt.Fprintln(w, "prune: no baseline, time comparison skipped")
	} else {
		if curP == nil {
			return 0, fmt.Errorf("missing current BENCH_prune.json (baseline exists)")
		}
		key := func(r experiments.PruneRow) string {
			return fmt.Sprintf("%s/%s/workers=%d", r.Dataset, r.Pruning, r.Workers)
		}
		cur := make(map[string]experiments.PruneRow, len(curP))
		for _, r := range curP {
			cur[key(r)] = r
		}
		for _, b := range baseP {
			c, found := cur[key(b)]
			if !found {
				add(check{metric: "prune/" + key(b) + " ns", baseline: float64(b.PruneTime), ok: false, note: "configuration missing from current run"})
				continue
			}
			add(gated("prune/"+key(b)+" ns", float64(b.PruneTime), float64(c.PruneTime), threshold, true))
		}
	}
	if curP != nil {
		topWorkers, best := 0, math.Inf(-1)
		var bestRow experiments.PruneRow
		for _, r := range curP {
			if !r.EqualSerial {
				add(check{
					metric:  fmt.Sprintf("prune/%s/%s/workers=%d equal-serial", r.Dataset, r.Pruning, r.Workers),
					ok:      false,
					note:    "parallel output diverged from the serial scheme",
					current: r.SpeedupVs1,
				})
			}
			if r.Workers > topWorkers {
				topWorkers, best = r.Workers, math.Inf(-1)
			}
			if r.Workers == topWorkers && r.SpeedupVs1 > best {
				best, bestRow = r.SpeedupVs1, r
			}
		}
		switch {
		case topWorkers <= 1:
			fmt.Fprintln(w, "prune: no multi-worker row, speedup floor skipped")
		case bestRow.GOMAXPROCS < minProcs:
			fmt.Fprintf(w, "prune: speedup floor skipped (GOMAXPROCS %d < %d; speedup is parallelism-bound)\n", bestRow.GOMAXPROCS, minProcs)
		default:
			add(floorCheck(fmt.Sprintf("prune/%s best speedup at %d workers", bestRow.Dataset, topWorkers),
				minPrune, best))
		}
	}

	// recover: per-cell crash-recovery time vs baseline, plus the
	// Match flag over the current run alone — a recovered server that
	// diverged from the pre-crash state fails by name even when no
	// baseline exists yet.
	baseR, err := loadJSON[experiments.RecoverRow](baseDir, "BENCH_recover.json")
	if err != nil {
		return 0, err
	}
	curR, err := loadJSON[experiments.RecoverRow](curDir, "BENCH_recover.json")
	if err != nil {
		return 0, err
	}
	if baseR == nil {
		fmt.Fprintln(w, "recover: no baseline, time comparison skipped")
	} else {
		if curR == nil {
			return 0, fmt.Errorf("missing current BENCH_recover.json (baseline exists)")
		}
		key := func(r experiments.RecoverRow) string {
			return fmt.Sprintf("%s/%s/shards=%d", r.Dataset, r.Mode, r.Shards)
		}
		cur := make(map[string]experiments.RecoverRow, len(curR))
		for _, r := range curR {
			cur[key(r)] = r
		}
		for _, b := range baseR {
			c, found := cur[key(b)]
			if !found {
				add(check{metric: "recover/" + key(b) + " ns", baseline: float64(b.RecoveryTime), ok: false, note: "configuration missing from current run"})
				continue
			}
			add(gated("recover/"+key(b)+" ns", float64(b.RecoveryTime), float64(c.RecoveryTime), threshold, true))
		}
	}
	for _, r := range curR {
		if !r.Match {
			add(check{
				metric: fmt.Sprintf("recover/%s/%s/shards=%d match", r.Dataset, r.Mode, r.Shards),
				ok:     false,
				note:   "recovered server diverged from the pre-crash state",
			})
		}
	}

	// load: per-cell HTTP insert throughput and read p99 vs baseline,
	// plus the HTTP-vs-in-process differential over the current run
	// alone — a front end whose responses diverge from the Server it
	// fronts fails by name even when no baseline exists yet.
	baseL, err := loadJSON[experiments.LoadRow](baseDir, "BENCH_load.json")
	if err != nil {
		return 0, err
	}
	curL, err := loadJSON[experiments.LoadRow](curDir, "BENCH_load.json")
	if err != nil {
		return 0, err
	}
	if baseL == nil {
		fmt.Fprintln(w, "load: no baseline, throughput comparison skipped")
	} else {
		if curL == nil {
			return 0, fmt.Errorf("missing current BENCH_load.json (baseline exists)")
		}
		key := func(r experiments.LoadRow) string {
			return fmt.Sprintf("%s/clients=%d/shards=%d", r.Dataset, r.Clients, r.Shards)
		}
		cur := make(map[string]experiments.LoadRow, len(curL))
		for _, r := range curL {
			cur[key(r)] = r
		}
		for _, b := range baseL {
			c, found := cur[key(b)]
			if !found {
				add(check{metric: "load/" + key(b) + " inserts/s", baseline: b.InsertThroughput, ok: false, note: "configuration missing from current run"})
				continue
			}
			add(gated("load/"+key(b)+" inserts/s", b.InsertThroughput, c.InsertThroughput, threshold, false))
			add(gated("load/"+key(b)+" read p99 ns", float64(b.ReadP99), float64(c.ReadP99), threshold, true))
		}
	}
	for _, r := range curL {
		if !r.Match {
			add(check{
				metric: fmt.Sprintf("load/%s/clients=%d/shards=%d match", r.Dataset, r.Clients, r.Shards),
				ok:     false,
				note:   "HTTP responses diverged from in-process Server calls",
			})
		}
	}

	// partition: per-cell write throughput vs baseline, the differential
	// flag, and the per-shard memory ceiling over the current run alone —
	// shards whose per-shard memory does not shrink with the shard count
	// are replicating, not partitioning, and fail by name even when no
	// baseline exists yet.
	basePT, err := loadJSON[experiments.PartitionRow](baseDir, "BENCH_partition.json")
	if err != nil {
		return 0, err
	}
	curPT, err := loadJSON[experiments.PartitionRow](curDir, "BENCH_partition.json")
	if err != nil {
		return 0, err
	}
	if basePT == nil {
		fmt.Fprintln(w, "partition: no baseline, throughput comparison skipped")
	} else {
		if curPT == nil {
			return 0, fmt.Errorf("missing current BENCH_partition.json (baseline exists)")
		}
		key := func(r experiments.PartitionRow) string {
			return fmt.Sprintf("%s/shards=%d", r.Dataset, r.Shards)
		}
		cur := make(map[string]experiments.PartitionRow, len(curPT))
		for _, r := range curPT {
			cur[key(r)] = r
		}
		for _, b := range basePT {
			c, found := cur[key(b)]
			if !found {
				add(check{metric: "partition/" + key(b) + " inserts/s", baseline: b.InsertThroughput, ok: false, note: "configuration missing from current run"})
				continue
			}
			add(gated("partition/"+key(b)+" inserts/s", b.InsertThroughput, c.InsertThroughput, threshold, false))
		}
	}
	if curPT != nil {
		var top *experiments.PartitionRow
		for i := range curPT {
			r := &curPT[i]
			if !r.PairsMatch {
				add(check{
					metric: fmt.Sprintf("partition/%s/shards=%d match", r.Dataset, r.Shards),
					ok:     false,
					note:   "server diverged from the cold rebuild",
				})
			}
			if top == nil || r.Shards > top.Shards {
				top = r
			}
		}
		switch {
		case top == nil || top.Shards <= 1:
			fmt.Fprintln(w, "partition: no multi-shard row, memory ceiling skipped")
		case top.GOMAXPROCS < minProcs:
			fmt.Fprintf(w, "partition: memory ceiling skipped (GOMAXPROCS %d < %d; gated on the CI runner class)\n", top.GOMAXPROCS, minProcs)
		default:
			add(ceilingCheck(fmt.Sprintf("partition/%s per-shard mem %d vs 1 shard", top.Dataset, top.Shards),
				maxPartMem, top.MemVs1))
		}
	}

	// spill: corpus-point coverage vs baseline, the Spilled and
	// PairsMatch flags, and the peak-build-heap ceiling at the largest
	// corpus point over the current run alone — a spilled build whose
	// heap tracks its resident twin is not building beyond RAM and fails
	// by name even when no baseline exists yet.
	baseSP, err := loadJSON[experiments.SpillRow](baseDir, "BENCH_spill.json")
	if err != nil {
		return 0, err
	}
	curSP, err := loadJSON[experiments.SpillRow](curDir, "BENCH_spill.json")
	if err != nil {
		return 0, err
	}
	if baseSP == nil {
		fmt.Fprintln(w, "spill: no baseline, corpus-point coverage skipped")
	} else {
		if curSP == nil {
			return 0, fmt.Errorf("missing current BENCH_spill.json (baseline exists)")
		}
		cur := make(map[int]bool, len(curSP))
		for _, r := range curSP {
			cur[r.Profiles] = true
		}
		for _, b := range baseSP {
			if !cur[b.Profiles] {
				add(check{metric: fmt.Sprintf("spill/profiles=%d", b.Profiles), ok: false, note: "corpus point missing from current run"})
			}
		}
	}
	if curSP != nil {
		var top *experiments.SpillRow
		for i := range curSP {
			r := &curSP[i]
			if !r.Spilled {
				add(check{
					metric: fmt.Sprintf("spill/profiles=%d spilled", r.Profiles),
					ok:     false,
					note:   "corpus point never exceeded the memory budget",
				})
			}
			if !r.PairsMatch {
				add(check{
					metric: fmt.Sprintf("spill/profiles=%d match", r.Profiles),
					ok:     false,
					note:   "spilled build diverged from the resident build",
				})
			}
			if top == nil || r.Profiles > top.Profiles {
				top = r
			}
		}
		if top == nil {
			fmt.Fprintln(w, "spill: no rows, heap ceiling skipped")
		} else {
			add(ceilingCheck(fmt.Sprintf("spill/profiles=%d peak heap vs resident", top.Profiles),
				maxSpillHeap, top.PeakVsResident))
		}
	}

	for _, c := range checks {
		status := "ok"
		if !c.ok {
			status = "REGRESSED"
		}
		delta := ""
		if c.baseline > 0 && c.current > 0 {
			delta = fmt.Sprintf("%+.1f%%", (c.current/c.baseline-1)*100)
		}
		fmt.Fprintf(w, "%-45s base %14.1f  cur %14.1f  %7s  %s %s\n",
			c.metric, c.baseline, c.current, delta, status, c.note)
	}
	return failures, nil
}
