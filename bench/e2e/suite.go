package main

// The suite: every workload as its own child invocation of this binary
// (so heap state and VmHWM do not leak between workloads), first
// untraced for the end-to-end metrics, then traced for the per-layer
// ones; golden.json pins the counts and qualities of seed 1; -compare
// sets two suite files side by side.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

type suiteOptions struct {
	workload     string
	seed         uint64
	seconds      float64
	quick        bool
	jsonOut      string
	updateGolden bool
}

// Suite is the -json file: both runs of every workload.
type Suite struct {
	Env       Env                    `json:"env"`
	Seed      uint64                 `json:"seed"`
	Quick     bool                   `json:"quick,omitempty"`
	Workloads map[string]*SuiteEntry `json:"workloads"`
}

type SuiteEntry struct {
	Untraced *Report `json:"untraced"`
	Traced   *Report `json:"traced"`
}

func runSuite(sp *spec, pkg string, o suiteOptions) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	suite := &Suite{Env: readEnv(), Seed: o.seed, Quick: o.quick, Workloads: map[string]*SuiteEntry{}}
	suite.Env.Commit = commit(filepath.Dir(filepath.Dir(pkg)))
	status := 0
	for _, w := range sp.Workloads {
		if o.workload != "" && o.workload != w.Name {
			continue
		}
		entry := &SuiteEntry{}
		for trace, dst := range []**Report{&entry.Untraced, &entry.Traced} {
			report := filepath.Join(pkg, "out", fmt.Sprintf("report-%s-%d.json", w.Name, trace))
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-report", report,
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s (trace %d): %v\n", w.Name, trace, err)
				status = 1
			}
			data, err := os.ReadFile(report)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				return 2
			}
			*dst = &Report{}
			if err := json.Unmarshal(data, *dst); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", report, err)
				return 2
			}
		}
		suite.Workloads[w.Name] = entry
	}
	if o.updateGolden {
		if o.seed != 1 || o.quick {
			fmt.Fprintln(os.Stderr, "e2e: golden.json pins seed 1 at full scale")
			return 2
		}
		if err := writeGolden(pkg, suite); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 2
		}
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, suite); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 2
		}
	}
	return status
}

// commit asks git for the checkout's commit; a checkout that is not a
// repository has none.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// ---- golden values ----

// goldenNames are the readings golden.json pins for seed 1: they repeat
// exactly, and a change to any of them is a change of behaviour, not of
// speed.
var goldenNames = []string{"graph.edges", "prune.retained_pairs", "pc", "pq"}

type golden map[string]map[string]float64 // workload -> metric -> value

func goldenPath(pkg string) string { return filepath.Join(pkg, "golden.json") }

func checkGolden(b *bench, pkg string) {
	data, err := os.ReadFile(goldenPath(pkg))
	if err != nil {
		return // not yet generated: -update-golden writes it
	}
	var g golden
	if !b.must(json.Unmarshal(data, &g), "golden.json") {
		return
	}
	for name, want := range g[b.workload] {
		if r, ok := b.readings[name]; ok {
			b.ok(math.Abs(r.Value-want) <= 1e-12*math.Abs(want), "golden %s: %v, pinned %v", name, r.Value, want)
		}
	}
}

func writeGolden(pkg string, s *Suite) error {
	g := golden{}
	for name, e := range s.Workloads {
		g[name] = map[string]float64{}
		for _, rep := range []*Report{e.Untraced, e.Traced} {
			for _, m := range goldenNames {
				if r, ok := rep.Metrics[m]; ok {
					g[name][m] = r.Value
				}
			}
		}
	}
	return writeJSON(goldenPath(pkg), g)
}

// ---- compare ----

// ungatedBound is the regression bound -compare applies to the readings
// of the untraced run that BENCHMARK.json lists without one (the
// workload-specific ones: recover_s, insert_p50_ms, ...): the bound of
// work_s for what is timed, the issue's for what repeats exactly.
var ungatedBound = map[string]float64{"disk_mb": 0.02, "build_alloc_mb": 0.03}

const defaultUngatedBound = 0.25

// compareFiles prints one row per workload and untraced reading: both
// medians, the delta, the bound, and ok / improved / regressed /
// unresolved (in-run spread wider than the bound). It exits non-zero on
// a regression.
func compareFiles(sp *spec, pathA, pathB string) int {
	var a, b Suite
	for i, dst := range []*Suite{&a, &b} {
		path := []string{pathA, pathB}[i]
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, dst)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", path, err)
			return 2
		}
	}
	status := 0
	fmt.Printf("%-13s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, w := range sp.Workloads {
		ea, eb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ea == nil || eb == nil {
			continue
		}
		for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
			ra, okA := ea.Untraced.Metrics[m.Name]
			rb, okB := eb.Untraced.Metrics[m.Name]
			if !okA || !okB || strings.Contains(m.Name, ".") {
				continue // layer metrics have no bound
			}
			bound := m.Bound
			if _, gated := sp.gated(m.Name); !gated {
				bound = defaultUngatedBound
				if v, ok := ungatedBound[m.Name]; ok {
					bound = v
				}
			}
			verdict := judge(m, ra, rb, bound)
			if verdict == "regressed" {
				status = 1
			}
			fmt.Printf("%-13s %-24s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, ra.Value, rb.Value, 100*relDelta(ra.Value, rb.Value), 100*bound, verdict)
		}
	}
	return status
}

func relDelta(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

func judge(m specMetric, a, b Reading, bound float64) string {
	spread := func(r Reading) float64 {
		if r.Value == 0 {
			return 0
		}
		return (r.Q3 - r.Q1) / math.Abs(r.Value)
	}
	worse := relDelta(a.Value, b.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.Value == b.Value:
		return "ok"
	case max(spread(a), spread(b)) > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "ok"
}
