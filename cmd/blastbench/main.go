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
// generated from it, so the two cannot drift. Besides the paper's
// tables and figures, baselines feeds other blocking families into the
// same meta-blocking, standard compares LMI with schema-based Standard
// Blocking, scalability times the phases as a dataset grows and
// endtoend counts the comparisons a matcher saves. -scale multiplies
// the per-dataset default sizes (see internal/experiments); absolute
// metrics depend on it, comparative structure does not. At -scale 0.2
// the non-time columns are pinned by internal/experiments'
// testdata/paper.golden. Performance is measured elsewhere: by the
// bench/e2e workloads and by the Go benchmarks of the root package.
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
// of truth for the experiment ids: the -exp usage string and the "all"
// dispatch order are generated from it (main_test.go pins the generated
// string against the table), so the help text can no longer lag a
// release behind the switch.
type experimentSpec struct {
	id  string
	run func(cfg experiments.Config, dataset string) error
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

func main() {
	exp := flag.String("exp", "all", expUsage())
	dataset := flag.String("dataset", "", "dataset for table4/table7/endtoend/scalability/baselines (default: every applicable)")
	scale := flag.Float64("scale", 1, "scale multiplier over per-dataset defaults")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	if err := run(cfg, *exp, *dataset); err != nil {
		fmt.Fprintln(os.Stderr, "blastbench:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, exp, dataset string) error {
	if exp == "all" {
		for _, s := range experimentTable {
			if err := s.run(cfg, dataset); err != nil {
				return fmt.Errorf("%s: %w", s.id, err)
			}
			fmt.Println()
		}
		return nil
	}
	for _, s := range experimentTable {
		if s.id == exp {
			return s.run(cfg, dataset)
		}
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

func runTable2(cfg experiments.Config, _ string) error {
	rows, err := experiments.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Table 2: dataset characteristics ==")
	fmt.Print(experiments.RenderTable2(rows))
	return nil
}

func runTable3(cfg experiments.Config, _ string) error {
	rows, err := experiments.Table3(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Table 3: block collections (Token Blocking ± LMI, before/after purge+filter) ==")
	fmt.Print(experiments.RenderTable3(rows))
	return nil
}

func runTable4(cfg experiments.Config, dataset string) error {
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

func runTable5(cfg experiments.Config, _ string) error {
	rows, err := experiments.Table5(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderCompare("Table 5 dbp (with LSH-starred rows)", rows))
	return nil
}

func runTable6(cfg experiments.Config, _ string) error {
	rows, err := experiments.Table6(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Table 6: LMI run time vs LSH threshold ==")
	fmt.Print(experiments.RenderTable6(rows))
	return nil
}

func runTable7(cfg experiments.Config, dataset string) error {
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

func runFig5(experiments.Config, string) error {
	curve, th := experiments.Figure5()
	fmt.Println("== Figure 5 ==")
	fmt.Print(experiments.RenderFigure5(curve, th))
	return nil
}

func runFig8(cfg experiments.Config, _ string) error {
	rows, err := experiments.Figure8(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 8: component ablation (wnp / chi / wsh / bch) ==")
	fmt.Print(experiments.RenderFigure8(rows))
	return nil
}

func runFig9(cfg experiments.Config, _ string) error {
	rows, err := experiments.Figure9(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 9: LMI vs AC ==")
	fmt.Print(experiments.RenderFigure9(rows))
	return nil
}

func runFig10(cfg experiments.Config, _ string) error {
	rows, err := experiments.Figure10(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 10: PC vs LSH threshold (glue cluster disabled) ==")
	fmt.Print(experiments.RenderFigure10(rows))
	return nil
}

func runEndToEnd(cfg experiments.Config, dataset string) error {
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

func runScalability(cfg experiments.Config, dataset string) error {
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

func runBaselines(cfg experiments.Config, dataset string) error {
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

func runStandard(cfg experiments.Config, _ string) error {
	rows, err := experiments.StandardBlocking(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Section 4.1: Blast vs schema-based Standard Blocking ==")
	fmt.Print(experiments.RenderStandard(rows))
	return nil
}
