// Command blastbench regenerates the tables and figures of the BLAST
// paper's evaluation on the synthetic benchmark workloads.
//
// Usage:
//
//	blastbench -exp table4 -dataset ar1 -scale 1 -seed 42
//	blastbench -exp all
//
// The experiment ids accepted by -exp (and run in order by -exp all)
// come from one dispatch table below; the flag's usage string is
// generated from it, so the two cannot drift. -scale multiplies the
// per-dataset default sizes (see internal/experiments); absolute
// metrics depend on it, comparative structure does not. The query
// experiment measures single-profile Index.Candidates latency and
// throughput on the registry datasets; the serve experiment
// drives a mixed read/write load against the sharded snapshot-swap
// Server across shard counts and against the single-Index baseline;
// the recover experiment measures durable serving (WAL + snapshot
// persistence) and the cost of crash recovery, checking the recovered
// server against the pre-close state; the load experiment drives
// concurrent HTTP clients (mixed read/write) against the blasthttp
// front end over loopback, reporting insert throughput, read latency
// under churn, and a differential check that HTTP responses are
// byte-identical to in-process Server calls; the partition experiment
// runs the server across shard counts, reporting write throughput and
// per-shard state residency (shards own disjoint row slices, so
// per-shard memory must shrink as shards are added); the spill experiment compares the
// file-backed (beyond-RAM) storage mode against the resident build on
// datagen-streamed corpora exceeding the memory budget, reporting
// serving-heap ratio, on-disk segment footprint, page-cache hit rate
// and the spilled-vs-resident pairs differential.
// For the experiments marked JSON-capable in the table, -json renders
// machine-readable JSON (the CI benchmark artifacts).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blast/internal/datasets"
	"blast/internal/experiments"
)

// experimentSpec is one -exp selection. The table is the single source
// of truth for the experiment ids: the -exp usage string, the -json
// usage string and the "all" dispatch order are all generated from it
// (main_test.go pins the generated strings against the table), so the
// help text can no longer lag a release behind the switch.
type experimentSpec struct {
	id string
	// json marks the experiments with a -json rendering (the CI
	// benchmark artifacts).
	json bool
	run  func(cfg experiments.Config, dataset string, jsonOut bool) error
}

// experimentTable lists every experiment in report order. "all" is not
// an entry: it is the synthetic id that runs the whole table.
var experimentTable = []experimentSpec{
	{id: "table2", run: runTable2},
	{id: "table3", run: runTable3},
	{id: "table4", run: runTable4},
	{id: "table5", run: runTable5},
	{id: "table6", run: runTable6},
	{id: "table7", run: runTable7},
	{id: "fig5", run: runFig5},
	{id: "fig8", run: runFig8},
	{id: "fig9", run: runFig9},
	{id: "fig10", run: runFig10},
	{id: "endtoend", run: runEndToEnd},
	{id: "scalability", run: runScalability},
	{id: "query", json: true, run: runQuery},
	{id: "prune", json: true, run: runPrune},
	{id: "serve", json: true, run: runServe},
	{id: "recover", json: true, run: runRecover},
	{id: "load", json: true, run: runLoad},
	{id: "partition", json: true, run: runPartition},
	{id: "spill", json: true, run: runSpill},
	{id: "baselines", run: runBaselines},
	{id: "standard", run: runStandard},
}

// expUsage generates the -exp flag's usage string from the table.
func expUsage() string {
	ids := make([]string, 0, len(experimentTable)+1)
	for _, s := range experimentTable {
		ids = append(ids, s.id)
	}
	ids = append(ids, "all")
	return "experiment id: " + strings.Join(ids, ", ")
}

// jsonUsage generates the -json flag's usage string from the table.
func jsonUsage() string {
	ids := make([]string, 0, len(experimentTable))
	for _, s := range experimentTable {
		if s.json {
			ids = append(ids, s.id)
		}
	}
	return "render the " + strings.Join(ids, "/") + " experiments as JSON"
}

func main() {
	exp := flag.String("exp", "all", expUsage())
	dataset := flag.String("dataset", "", "dataset for table4/table7/endtoend/query/prune/recover (default: every applicable)")
	scale := flag.Float64("scale", 1, "scale multiplier over per-dataset defaults")
	seed := flag.Uint64("seed", 42, "random seed")
	jsonOut := flag.Bool("json", false, jsonUsage())
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	if err := run(cfg, *exp, *dataset, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "blastbench:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, exp, dataset string, jsonOut bool) error {
	if exp == "all" {
		for _, s := range experimentTable {
			// Always the text rendering: interleaving one JSON array into
			// the combined report would serve neither reader.
			if err := s.run(cfg, dataset, false); err != nil {
				return fmt.Errorf("%s: %w", s.id, err)
			}
			fmt.Println()
		}
		return nil
	}
	for _, s := range experimentTable {
		if s.id == exp {
			return s.run(cfg, dataset, jsonOut)
		}
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

func runTable2(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Table 2: dataset characteristics ==")
	fmt.Print(experiments.RenderTable2(rows))
	return nil
}

func runTable3(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.Table3(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Table 3: block collections (Token Blocking ± LMI, before/after purge+filter) ==")
	fmt.Print(experiments.RenderTable3(rows))
	return nil
}

func runTable4(cfg experiments.Config, dataset string, _ bool) error {
	names := []string{"ar1", "ar2", "prd", "mov"}
	if dataset != "" {
		names = []string{dataset}
	}
	for _, name := range names {
		rows, err := experiments.Table4(cfg, name)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderCompare("Table 4 "+name, rows))
		fmt.Println()
	}
	return nil
}

func runTable5(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.Table5(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderCompare("Table 5 dbp (with LSH-starred rows)", rows))
	return nil
}

func runTable6(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.Table6(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Table 6: LMI run time vs LSH threshold ==")
	fmt.Print(experiments.RenderTable6(rows))
	return nil
}

func runTable7(cfg experiments.Config, dataset string, _ bool) error {
	names := datasets.DirtyNames()
	if dataset != "" {
		names = []string{dataset}
	}
	for _, name := range names {
		rows, err := experiments.Table7(cfg, name)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderCompare("Table 7 "+name+" (dirty ER)", rows))
		fmt.Println()
	}
	return nil
}

func runFig5(experiments.Config, string, bool) error {
	curve, th := experiments.Figure5()
	fmt.Println("== Figure 5 ==")
	fmt.Print(experiments.RenderFigure5(curve, th))
	return nil
}

func runFig8(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.Figure8(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 8: component ablation (wnp / chi / wsh / bch) ==")
	fmt.Print(experiments.RenderFigure8(rows))
	return nil
}

func runFig9(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.Figure9(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 9: LMI vs AC ==")
	fmt.Print(experiments.RenderFigure9(rows))
	return nil
}

func runFig10(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.Figure10(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 10: PC vs LSH threshold (glue cluster disabled) ==")
	fmt.Print(experiments.RenderFigure10(rows))
	return nil
}

func runEndToEnd(cfg experiments.Config, dataset string, _ bool) error {
	name := dataset
	if name == "" {
		name = "ar1"
	}
	res, err := experiments.EndToEnd(cfg, name, 0.3)
	if err != nil {
		return err
	}
	fmt.Println("== Section 4.2.2: end-to-end comparison savings ==")
	fmt.Print(res.Render())
	return nil
}

func runScalability(cfg experiments.Config, dataset string, _ bool) error {
	name := dataset
	if name == "" {
		name = "ar1"
	}
	// workers=1: the serial baseline, comparable across machines.
	rows, err := experiments.Scalability(cfg, name, nil, 1)
	if err != nil {
		return err
	}
	fmt.Println("== Scalability: phase overhead vs dataset scale ==")
	fmt.Print(experiments.RenderScalability(name, rows))
	return nil
}

func runQuery(cfg experiments.Config, dataset string, jsonOut bool) error {
	var names []string
	if dataset != "" {
		names = []string{dataset}
	}
	rows, err := experiments.Query(cfg, names)
	if err != nil {
		return err
	}
	if jsonOut {
		js, err := experiments.QueryJSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	fmt.Println("== Query: online candidate serving via Index.Candidates ==")
	fmt.Print(experiments.RenderQuery(rows))
	return nil
}

func runPrune(cfg experiments.Config, dataset string, jsonOut bool) error {
	// dataset defaults to dbp (the largest registry dataset); the
	// Pruning x Workers series is what the CI regression gate checks
	// (per-cell prune time, the 4-worker speedup floor on multi-core
	// hosts, and serial/parallel byte-equality).
	name := dataset
	rows, err := experiments.Prune(cfg, name)
	if err != nil {
		return err
	}
	if jsonOut {
		js, err := experiments.PruneJSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	if name == "" {
		name = "dbp"
	}
	fmt.Println("== Prune: parallel streaming pruning vs serial ==")
	fmt.Print(experiments.RenderPrune(name, rows))
	return nil
}

func runServe(cfg experiments.Config, dataset string, jsonOut bool) error {
	// dataset defaults to dbp (the largest registry dataset) inside
	// Serve; shard counts 1/2/4 give the scaling series the CI
	// regression gate checks.
	rows, err := experiments.Serve(cfg, dataset, nil, 0)
	if err != nil {
		return err
	}
	if jsonOut {
		js, err := experiments.ServeJSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	fmt.Println("== Serve: sharded snapshot-swap Server vs single Index ==")
	fmt.Print(experiments.RenderServe(rows))
	return nil
}

func runRecover(cfg experiments.Config, dataset string, jsonOut bool) error {
	// dataset defaults to census inside Recover; shard counts 1/2 x
	// modes snapshot/walreplay give the recovery series the CI
	// regression gate checks (recovery time per cell, plus the
	// recovered-state byte-equality that fails the run on divergence).
	rows, err := experiments.Recover(cfg, dataset, nil)
	if err != nil {
		return err
	}
	if jsonOut {
		js, err := experiments.RecoverJSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	fmt.Println("== Recover: durable serving, WAL + snapshot crash recovery ==")
	fmt.Print(experiments.RenderRecover(rows))
	return nil
}

func runLoad(cfg experiments.Config, dataset string, jsonOut bool) error {
	// dataset defaults to census inside Load; client counts 2/4 give
	// the HTTP serving series the CI regression gate checks (insert
	// throughput and read p99 per cell, plus the HTTP-vs-in-process
	// byte differential the gate fails on by name when Match=false).
	rows, err := experiments.Load(cfg, dataset, nil, 0, 0)
	if err != nil {
		return err
	}
	if jsonOut {
		js, err := experiments.LoadJSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	fmt.Println("== Load: HTTP front end under concurrent mixed traffic ==")
	fmt.Print(experiments.RenderLoad(rows))
	return nil
}

func runPartition(cfg experiments.Config, dataset string, jsonOut bool) error {
	// dataset defaults to dbp (the largest registry dataset) inside
	// Partition; shard counts 1/2/4 x both topologies give the series
	// the CI regression gate checks (per-cell write throughput, the
	// partitioned per-shard memory shrink from 1 to the largest shard
	// count, and the differential check that fails the run on
	// divergence).
	rows, err := experiments.Partition(cfg, dataset, nil)
	if err != nil {
		return err
	}
	if jsonOut {
		js, err := experiments.PartitionJSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	fmt.Println("== Partition: row ownership across shard counts ==")
	fmt.Print(experiments.RenderPartition(rows))
	return nil
}

func runSpill(cfg experiments.Config, _ string, jsonOut bool) error {
	// Corpus sizes default inside Spill (datagen-streamed, every point
	// exceeding the fixed memory budget); the CI regression gate checks
	// per-point serving-heap ratio and cache hit rate, and fails by name
	// on a non-spilled row or a spilled-vs-resident pairs divergence.
	rows, err := experiments.Spill(cfg, nil)
	if err != nil {
		return err
	}
	if jsonOut {
		js, err := experiments.SpillJSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	fmt.Println("== Spill: file-backed beyond-RAM storage vs resident build ==")
	fmt.Print(experiments.RenderSpill(rows))
	return nil
}

func runBaselines(cfg experiments.Config, dataset string, _ bool) error {
	name := dataset
	if name == "" {
		name = "ar1"
	}
	rows, err := experiments.Baselines(cfg, name)
	if err != nil {
		return err
	}
	fmt.Println("== Extension: blocking substrates feeding BLAST meta-blocking ==")
	fmt.Print(experiments.RenderBaselines(name, rows))
	return nil
}

func runStandard(cfg experiments.Config, _ string, _ bool) error {
	rows, err := experiments.StandardBlocking(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Section 4.1: Blast vs schema-based Standard Blocking ==")
	fmt.Print(experiments.RenderStandard(rows))
	return nil
}
