// Command e2e is the repository's benchmark: five named workloads, each
// measured untraced for the end-to-end metrics and traced for the
// per-layer ones, every layer timed from outside through its public
// functions. BENCHMARK.json at the root names the metrics; README.md in
// this directory defines them.
//
//	bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//	bash bench/e2e/run.sh [-seed 1] [-workload W] [-json FILE]            every workload, untraced then traced
//	bash bench/e2e/run.sh -compare A.json B.json                          two -json files, metric by metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all of BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: one untraced run; 1: one traced run; -1: both, for every selected workload")
	quick := fs.Bool("quick", false, "smoke-test scale: Stream 600, DBP x0.02, 1 repetition")
	jsonOut := fs.String("json", "", "write the suite's results to this file")
	report := fs.String("report", "", "write this run's full report (all readings, quartiles, environment) to this file")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments; exit non-zero on a regression")
	updateGolden := fs.Bool("update-golden", false, "rewrite golden.json from this suite run (seed 1, full scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2e: -compare takes two files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1))
	}
	if *workload != "" && !sp.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	pkg := filepath.Join(root, "bench", "e2e")
	out := filepath.Join(pkg, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	if *trace < 0 {
		return runSuite(sp, pkg, suiteOptions{
			workload: *workload, seed: *seed, seconds: *seconds, quick: *quick,
			jsonOut: *jsonOut, updateGolden: *updateGolden,
		})
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "e2e: -trace 0|1 runs one workload; name it with -workload")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick}
	rep := runWorkload(context.Background(), cfg, sp, pkg)
	rep.print(sp)
	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 2
		}
	}
	fmt.Println(rep.driverLine(sp))
	if !rep.Correct {
		return 1
	}
	return 0
}

// Env is the environment block every result carries.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
	VmHWMkB    int64  `json:"vm_hwm_kb"`
}

func readEnv() Env {
	return Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), VmHWMkB: vmHWM()}
}

// vmHWM reads the process's peak resident set from /proc (0 elsewhere).
func vmHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// Report is the full result of one run of one workload.
type Report struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      uint64             `json:"seed"`
	Quick     bool               `json:"quick,omitempty"`
	Seconds   float64            `json:"seconds"`
	Env       Env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]Reading `json:"metrics"`
	Shares    []LayerShare       `json:"shares,omitempty"`
}

// LayerShare is how the root spans of one name divide among layers:
// median seconds and each layer's share of self time.
type LayerShare struct {
	Root    string             `json:"root"`
	Roots   int                `json:"roots"`
	Seconds float64            `json:"seconds"`
	Layers  map[string]float64 `json:"layers"`
}

var workloads = map[string]func(context.Context, *bench){
	"build-cc":     runBuildCC,
	"sweep-dirty":  func(ctx context.Context, b *bench) { runSweep(ctx, b, false) },
	"sweep-spill":  func(ctx context.Context, b *bench) { runSweep(ctx, b, true) },
	"serve-stream": runServeStream,
	"http-mixed":   runHTTPMixed,
}

// runWorkload runs one workload once and gathers its report. pkg is the
// benchmark's directory; everything written lands under pkg/out.
func runWorkload(ctx context.Context, cfg config, sp *spec, pkg string) *Report {
	out := filepath.Join(pkg, "out")
	b := newBench(cfg, sp, out)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abort); !ok {
					panic(r)
				}
			}
		}()
		workloads[cfg.workload](ctx, b)
	}()
	b.cleanup()

	rep := &Report{
		Workload: cfg.workload, Traced: cfg.traced, Seed: cfg.seed, Quick: cfg.quick, Seconds: cfg.seconds,
		Metrics: b.readings,
	}
	if cfg.traced {
		rep.Shares = layerShares(b.tr)
		if err := b.tr.write(filepath.Join(out, "trace-"+cfg.workload+".json")); err != nil {
			b.ok(false, "write trace: %v", err)
		}
	} else {
		// The contract of the untraced run: every end-to-end metric,
		// none of them zero.
		for _, m := range sp.EndToEnd {
			r, ok := b.readings[m.Name]
			b.ok(ok && r.Value != 0, "end-to-end metric %s missing or zero", m.Name)
		}
	}
	if cfg.seed == 1 && !cfg.quick {
		checkGolden(b, pkg)
	}
	b.rec("failed_ops_share", float64(b.failed)/float64(max(b.attempted, 1)))
	rep.Attempted, rep.Failed, rep.Failures = max(b.attempted, 1), b.failed, b.failures
	rep.Correct = b.failed == 0
	rep.Env = readEnv()
	return rep
}

// layerShares folds the root spans of each name into one row.
func layerShares(tr *tracer) []LayerShare {
	byName := map[string][]rootShare{}
	var names []string
	for _, rs := range tr.shares() {
		if _, seen := byName[rs.Root.Name]; !seen {
			names = append(names, rs.Root.Name)
		}
		byName[rs.Root.Name] = append(byName[rs.Root.Name], rs)
	}
	var out []LayerShare
	for _, name := range names {
		ls := LayerShare{Root: name, Roots: len(byName[name]), Layers: map[string]float64{}}
		var secs []float64
		total := 0.0
		for _, rs := range byName[name] {
			secs = append(secs, rs.Seconds)
			for layer, s := range rs.ByLayer {
				ls.Layers[layer] += s
				total += s
			}
		}
		for layer := range ls.Layers {
			ls.Layers[layer] /= total
		}
		ls.Seconds = median(secs)
		out = append(out, ls)
	}
	return out
}

// print lists every metric of the run by name with its unit, sample
// count and quartiles, then the layer shares of a traced run.
func (r *Report) print(sp *spec) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %gs) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		_, gi := sp.gated(names[i])
		_, gj := sp.gated(names[j])
		if gi != gj {
			return gi
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 1 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Println(line)
	}
	for _, ls := range r.Shares {
		layers := make([]string, 0, len(ls.Layers))
		for l := range ls.Layers {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return ls.Layers[layers[i]] > ls.Layers[layers[j]] })
		parts := make([]string, len(layers))
		for i, l := range layers {
			parts[i] = fmt.Sprintf("%s %.1f%%", l, 100*ls.Layers[l])
		}
		fmt.Printf("  root %-10s x%d %8.3fs: %s\n", ls.Root, ls.Roots, ls.Seconds, strings.Join(parts, ", "))
	}
	fmt.Printf("  env nproc=%d GOMAXPROCS=%d %s VmHWM=%dkB; attempted %d, failed %d\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.VmHWMkB, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// driverLine renders the one JSON object the driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one (0 for a layer the workload does not exercise).
func (r *Report) driverLine(sp *spec) string {
	list := sp.EndToEnd
	if r.Traced {
		list = sp.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		metrics[m.Name] = value{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
