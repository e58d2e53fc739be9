package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blast/internal/experiments"
)

// writeJSON marshals rows into dir/name.
func writeJSON(t *testing.T, dir, name string, rows any) {
	t.Helper()
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func queryRow(ds string, p50 time.Duration) experiments.QueryRow {
	return experiments.QueryRow{Dataset: ds, P50: p50}
}

func serveRow(ds, mode string, shards, procs int, reads, scaling float64) experiments.ServeRow {
	return experiments.ServeRow{Dataset: ds, Mode: mode, Shards: shards, GOMAXPROCS: procs,
		ReadThroughput: reads, ScalingVs1: scaling, PairsMatch: true}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 100)})
	writeJSON(t, cur, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 120)}) // +20% < 25%
	writeJSON(t, base, "BENCH_serve.json", []experiments.ServeRow{
		serveRow("dbp", "server", 1, 8, 1e6, 1),
		serveRow("dbp", "server", 4, 8, 2.6e6, 2.6),
	})
	writeJSON(t, cur, "BENCH_serve.json", []experiments.ServeRow{
		serveRow("dbp", "server", 1, 8, 1e6, 1),
		serveRow("dbp", "server", 4, 8, 2.5e6, 2.5),
	})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d, output:\n%s", failures, out.String())
	}
}

func TestGateCatchesRegressions(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 100), queryRow("dbp", 200)})
	writeJSON(t, cur, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 200), queryRow("dbp", 200)}) // ar1 +100%
	writeJSON(t, base, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 4, 8, 2e6, 2.5)})
	writeJSON(t, cur, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 4, 8, 1e6, 1.2)}) // -50% and scaling < 2
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 (query p50, serve throughput, serve scaling)\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Error("report lacks REGRESSED markers")
	}
}

func TestGateScalingFloorSkippedOnSmallHosts(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	// Scaling 0.8 on a 1-core host: parallelism-bound, must be skipped.
	writeJSON(t, base, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 4, 1, 1e6, 0.8)})
	writeJSON(t, cur, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 4, 1, 1e6, 0.8)})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d on a parallelism-bound host\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "scaling floor skipped") {
		t.Errorf("missing skip note:\n%s", out.String())
	}
}

func TestGateMissingFiles(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	// No baselines at all: everything skips, gate passes.
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d with no baselines", failures)
	}
	for _, want := range []string{"query: no baseline", "serve: no baseline"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
	// Baseline present but current missing: hard error.
	writeJSON(t, base, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 100)})
	if _, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4); err == nil {
		t.Error("missing current artifact must error")
	}
	// Dataset present in baseline but dropped from current: regression.
	writeJSON(t, cur, "BENCH_query.json", []experiments.QueryRow{queryRow("other", 100)})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for dropped dataset\n%s", failures, out.String())
	}
}

func pruneRow(ds, pruning string, workers, procs int, ns time.Duration, speedup float64, equal bool) experiments.PruneRow {
	return experiments.PruneRow{Dataset: ds, Pruning: pruning, Workers: workers, GOMAXPROCS: procs,
		PruneTime: ns, SpeedupVs1: speedup, EqualSerial: equal}
}

// TestGateDegenerateBaseline: degenerate metrics in the BASELINE must
// produce named failures — a zero baseline p50 or throughput would
// otherwise make every current value pass the ratio vacuously. (JSON
// cannot carry NaN/Inf, so zero and negative values are the degenerate
// shapes a real artifact can take; the NaN/Inf classification is still
// covered by TestDegenerateNote.)
func TestGateDegenerateBaseline(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 0)}) // zero p50
	writeJSON(t, cur, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 100)})
	writeJSON(t, base, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 1, 8, -1, 1)})
	writeJSON(t, cur, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 1, 8, 1e6, 1)})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 2 {
		t.Fatalf("failures = %d, want 2 named degenerate-baseline failures\n%s", failures, out.String())
	}
	if got := strings.Count(out.String(), "degenerate baseline (non-positive)"); got != 2 {
		t.Errorf("want 2 named degenerate-baseline notes, got %d in:\n%s", got, out.String())
	}
}

// TestDegenerateNote pins the value classification, including the
// NaN/Inf shapes that can only arise from in-process arithmetic (a
// zero baseline turning a ratio Inf), not from a parsed artifact.
func TestDegenerateNote(t *testing.T) {
	cases := map[float64]string{
		math.NaN():   "NaN",
		math.Inf(1):  "Inf",
		math.Inf(-1): "Inf",
		0:            "non-positive",
		-3:           "non-positive",
		1:            "",
		42.5:         "",
	}
	for v, want := range cases {
		if got := degenerateNote(v); got != want {
			t.Errorf("degenerateNote(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestGateDegenerateCurrent is the other direction: a broken CURRENT
// artifact (zero p50, zero throughput and scaling)
// must fail by name — a zero p50 "faster than baseline" or a zero
// throughput with a vacuous ratio must never slip through the gate.
func TestGateDegenerateCurrent(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 100)})
	writeJSON(t, cur, "BENCH_query.json", []experiments.QueryRow{queryRow("ar1", 0)}) // "faster than baseline", but broken
	writeJSON(t, base, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 4, 8, 1e6, 2.5)})
	writeJSON(t, cur, "BENCH_serve.json", []experiments.ServeRow{serveRow("dbp", "server", 4, 8, 0, 0)})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// query p50, serve throughput, serve scaling.
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 named degenerate-current failures\n%s", failures, out.String())
	}
	if got := strings.Count(out.String(), "degenerate current (non-positive)"); got != 3 {
		t.Errorf("want 3 named degenerate-current notes, got %d in:\n%s", got, out.String())
	}
}

// TestGatePrune covers the prune artifact: per-cell time regression,
// the serial/parallel equality flag, and the speedup floor with its
// small-host skip.
func TestGatePrune(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_prune.json", []experiments.PruneRow{
		pruneRow("dbp", "blast-wnp", 1, 8, 100*time.Millisecond, 1, true),
		pruneRow("dbp", "blast-wnp", 4, 8, 40*time.Millisecond, 2.5, true),
	})
	writeJSON(t, cur, "BENCH_prune.json", []experiments.PruneRow{
		pruneRow("dbp", "blast-wnp", 1, 8, 110*time.Millisecond, 1, true), // +10% < 25%
		pruneRow("dbp", "blast-wnp", 4, 8, 44*time.Millisecond, 2.5, true),
	})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d within threshold\n%s", failures, out.String())
	}

	// Regressed time, a diverged parallel run, and a speedup below the
	// floor: three named failures.
	writeJSON(t, cur, "BENCH_prune.json", []experiments.PruneRow{
		pruneRow("dbp", "blast-wnp", 1, 8, 200*time.Millisecond, 1, true),     // +100%
		pruneRow("dbp", "blast-wnp", 4, 8, 150*time.Millisecond, 1.33, false), // diverged AND below floor
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 4 {
		t.Fatalf("failures = %d, want 4 (two times, equality, speedup floor)\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "diverged from the serial scheme") {
		t.Errorf("missing divergence note:\n%s", out.String())
	}

	// On a small host the speedup floor is skipped (parallelism-bound),
	// but the equality flag still gates.
	writeJSON(t, base, "BENCH_prune.json", []experiments.PruneRow{
		pruneRow("dbp", "blast-wnp", 4, 1, 100*time.Millisecond, 0.9, true),
	})
	writeJSON(t, cur, "BENCH_prune.json", []experiments.PruneRow{
		pruneRow("dbp", "blast-wnp", 4, 1, 100*time.Millisecond, 0.9, true),
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d on a parallelism-bound host\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "speedup floor skipped") {
		t.Errorf("missing skip note:\n%s", out.String())
	}

	// A baseline cell missing from the current run is a regression.
	writeJSON(t, cur, "BENCH_prune.json", []experiments.PruneRow{
		pruneRow("dbp", "cep", 4, 1, 100*time.Millisecond, 0.9, true),
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for dropped cell\n%s", failures, out.String())
	}
}

func recoverRow(ds, mode string, shards int, ns time.Duration, match bool) experiments.RecoverRow {
	return experiments.RecoverRow{Dataset: ds, Mode: mode, Shards: shards, GOMAXPROCS: 8,
		RecoveryTime: ns, Match: match}
}

// TestGateRecover covers the recover artifact: per-cell recovery-time
// regression, the recovered-state match flag (gated even with no
// baseline), and the dropped-cell check.
func TestGateRecover(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_recover.json", []experiments.RecoverRow{
		recoverRow("census", "snapshot", 2, 50*time.Millisecond, true),
		recoverRow("census", "walreplay", 2, 200*time.Millisecond, true),
	})
	writeJSON(t, cur, "BENCH_recover.json", []experiments.RecoverRow{
		recoverRow("census", "snapshot", 2, 55*time.Millisecond, true), // +10% < 25%
		recoverRow("census", "walreplay", 2, 210*time.Millisecond, true),
	})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d within threshold\n%s", failures, out.String())
	}

	// A regressed recovery time and a diverged recovered state: two
	// named failures.
	writeJSON(t, cur, "BENCH_recover.json", []experiments.RecoverRow{
		recoverRow("census", "snapshot", 2, 100*time.Millisecond, true),   // +100%
		recoverRow("census", "walreplay", 2, 210*time.Millisecond, false), // diverged
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 2 {
		t.Fatalf("failures = %d, want 2 (recovery time, match)\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "diverged from the pre-crash state") {
		t.Errorf("missing divergence note:\n%s", out.String())
	}

	// The match flag gates even when no baseline exists yet.
	os.Remove(filepath.Join(base, "BENCH_recover.json"))
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (match, baseline absent)\n%s", failures, out.String())
	}

	// A baseline cell missing from the current run is a regression.
	writeJSON(t, base, "BENCH_recover.json", []experiments.RecoverRow{
		recoverRow("census", "snapshot", 1, 50*time.Millisecond, true),
	})
	writeJSON(t, cur, "BENCH_recover.json", []experiments.RecoverRow{
		recoverRow("census", "snapshot", 2, 50*time.Millisecond, true),
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for dropped cell\n%s", failures, out.String())
	}
}

func loadRow(ds string, clients int, inserts float64, p99 time.Duration, match bool) experiments.LoadRow {
	return experiments.LoadRow{Dataset: ds, Clients: clients, Shards: 2, GOMAXPROCS: 8,
		InsertThroughput: inserts, ReadP99: p99, Match: match}
}

// TestGateLoad covers the HTTP load artifact: per-cell insert
// throughput and read-p99 regressions, the HTTP-vs-in-process match
// flag (gated even with no baseline), and the dropped-cell check.
func TestGateLoad(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_load.json", []experiments.LoadRow{
		loadRow("census", 2, 5000, 2*time.Millisecond, true),
		loadRow("census", 4, 8000, 3*time.Millisecond, true),
	})
	writeJSON(t, cur, "BENCH_load.json", []experiments.LoadRow{
		loadRow("census", 2, 4500, 2200*time.Microsecond, true), // -10% and +10%, both < 25%
		loadRow("census", 4, 8100, 3*time.Millisecond, true),
	})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d within threshold\n%s", failures, out.String())
	}

	// Collapsed insert throughput, regressed p99, and a diverged
	// response body: three named failures.
	writeJSON(t, cur, "BENCH_load.json", []experiments.LoadRow{
		loadRow("census", 2, 1000, 2*time.Millisecond, true),  // -80%
		loadRow("census", 4, 8000, 9*time.Millisecond, false), // +200% AND diverged
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 (throughput, p99, match)\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "diverged from in-process Server calls") {
		t.Errorf("missing divergence note:\n%s", out.String())
	}

	// The match flag gates even when no baseline exists yet.
	os.Remove(filepath.Join(base, "BENCH_load.json"))
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (match, baseline absent)\n%s", failures, out.String())
	}

	// A baseline cell missing from the current run is a regression.
	writeJSON(t, base, "BENCH_load.json", []experiments.LoadRow{
		loadRow("census", 8, 5000, 2*time.Millisecond, true),
	})
	writeJSON(t, cur, "BENCH_load.json", []experiments.LoadRow{
		loadRow("census", 2, 5000, 2*time.Millisecond, true),
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for dropped cell\n%s", failures, out.String())
	}
}

func partitionRow(shards, procs int, inserts, memVs1 float64, match bool) experiments.PartitionRow {
	return experiments.PartitionRow{Dataset: "dbp", Shards: shards, GOMAXPROCS: procs,
		InsertThroughput: inserts, MaxResidentBytes: 1 << 20, MemVs1: memVs1, PairsMatch: match}
}

// TestGatePartition covers the shard-count artifact: per-cell write
// throughput regression, the differential flag (gated even with no
// baseline), and the per-shard memory ceiling with its small-host skip.
func TestGatePartition(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_partition.json", []experiments.PartitionRow{
		partitionRow(1, 8, 5000, 1, true),
		partitionRow(4, 8, 6000, 0.3, true),
	})
	writeJSON(t, cur, "BENCH_partition.json", []experiments.PartitionRow{
		partitionRow(1, 8, 4600, 1, true),    // -8% < 25%
		partitionRow(4, 8, 5900, 0.32, true), // ceiling 0.6 holds
	})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d within threshold\n%s", failures, out.String())
	}

	// Collapsed write throughput, a diverged row, and flat per-shard
	// memory at 4 shards: three named failures.
	writeJSON(t, cur, "BENCH_partition.json", []experiments.PartitionRow{
		partitionRow(1, 8, 1000, 1, true),     // -80%
		partitionRow(4, 8, 6000, 0.95, false), // flat memory AND diverged
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 (throughput, match, memory ceiling)\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "diverged from the cold rebuild") {
		t.Errorf("missing divergence note:\n%s", out.String())
	}

	// The match flag gates even when no baseline exists yet; the memory
	// ceiling is skipped on a small host (same runner-class rule as the
	// other structural floors).
	os.Remove(filepath.Join(base, "BENCH_partition.json"))
	writeJSON(t, cur, "BENCH_partition.json", []experiments.PartitionRow{
		partitionRow(1, 1, 5000, 1, true),
		partitionRow(4, 1, 6000, 0.95, false), // diverged; ceiling skipped on 1 CPU
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (match only; baseline absent, small host)\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "memory ceiling skipped") {
		t.Errorf("missing skip note:\n%s", out.String())
	}

	// A baseline cell missing from the current run is a regression.
	writeJSON(t, base, "BENCH_partition.json", []experiments.PartitionRow{
		partitionRow(2, 8, 5000, 1, true),
	})
	writeJSON(t, cur, "BENCH_partition.json", []experiments.PartitionRow{
		partitionRow(1, 8, 5000, 1, true),
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for dropped cell\n%s", failures, out.String())
	}
}

func TestGateMalformedJSON(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(base, "BENCH_query.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4); err == nil {
		t.Error("malformed baseline must error")
	}
}

func spillRow(profiles int, peakVsResident float64, spilled, match bool) experiments.SpillRow {
	return experiments.SpillRow{Profiles: profiles, GOMAXPROCS: 8, MemoryBudget: 16384,
		Spilled: spilled, SpillBytes: 1 << 20, PeakVsResident: peakVsResident, PairsMatch: match}
}

func TestGateSpill(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeJSON(t, base, "BENCH_spill.json", []experiments.SpillRow{
		spillRow(750, 1.1, true, true),
		spillRow(3000, 0.3, true, true),
	})
	writeJSON(t, cur, "BENCH_spill.json", []experiments.SpillRow{
		spillRow(750, 1.2, true, true),   // peak heap not gated (not largest)
		spillRow(3000, 0.35, true, true), // ceiling 0.5 holds at the largest point
	})
	var out strings.Builder
	failures, err := run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d within threshold\n%s", failures, out.String())
	}

	// A never-spilled row, a diverged build and a flat peak heap at the
	// largest point: three named failures, with or without a baseline.
	writeJSON(t, cur, "BENCH_spill.json", []experiments.SpillRow{
		spillRow(750, 1.2, true, false),   // diverged
		spillRow(3000, 0.95, false, true), // never spilled AND flat heap
	})
	for _, baseline := range []bool{true, false} {
		if !baseline {
			if err := os.Remove(filepath.Join(base, "BENCH_spill.json")); err != nil {
				t.Fatal(err)
			}
		}
		out.Reset()
		failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
		if err != nil {
			t.Fatal(err)
		}
		if failures != 3 {
			t.Fatalf("baseline %v: failures = %d, want 3 (match, spilled, heap ceiling)\n%s", baseline, failures, out.String())
		}
		if !strings.Contains(out.String(), "never exceeded the memory budget") {
			t.Errorf("missing spilled note:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "diverged from the resident build") {
			t.Errorf("missing divergence note:\n%s", out.String())
		}
	}

	// A baseline corpus point missing from the current run is a
	// regression.
	writeJSON(t, base, "BENCH_spill.json", []experiments.SpillRow{
		spillRow(6000, 0.3, true, true),
	})
	writeJSON(t, cur, "BENCH_spill.json", []experiments.SpillRow{
		spillRow(3000, 0.3, true, true),
	})
	out.Reset()
	failures, err = run(&out, base, cur, 0.25, 2.0, 2.0, 0.6, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for dropped corpus point\n%s", failures, out.String())
	}
}
