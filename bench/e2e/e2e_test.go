package main

import (
	"context"
	"encoding/json"
	"go/format"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func testSpec(t *testing.T) (*spec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp, filepath.Join(root, "bench", "e2e")
}

// TestSpecShape pins BENCHMARK.json to the benchmark contract's limits.
func TestSpecShape(t *testing.T) {
	sp, _ := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", sp.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// TestSurfaceIsTheOnlyImporter keeps every reference to the product in
// surface.go, and the package gofmt-clean.
func TestSurfaceIsTheOnlyImporter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if formatted, err := format.Source(src); err != nil || string(formatted) != string(src) {
			t.Errorf("%s is not gofmt-clean (%v)", file, err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "blast" || strings.HasPrefix(path, "blast/")) && file != "surface.go" {
				t.Errorf("%s imports %s: only surface.go may reference the product", file, path)
			}
		}
	}
}

// TestQuickWorkloads runs every workload untraced and traced at -quick
// scale and checks what the runs emit against BENCHMARK.json.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice; skipped with -short")
	}
	sp, pkg := testSpec(t)
	if err := os.MkdirAll(filepath.Join(pkg, "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{} // per-layer metrics some workload measured
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: float64(sp.RunSeconds), traced: traced, quick: true}
			rep := runWorkload(context.Background(), cfg, sp, pkg)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			checkDriverLine(t, sp, rep)
			if !traced {
				continue
			}
			for name := range rep.Metrics {
				emitted[name] = true
			}
			checkSelfTimes(t, filepath.Join(pkg, "out", "trace-"+w.Name+".json"))
		}
	}
	for _, m := range sp.PerLayer {
		if !emitted[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}

// checkDriverLine asserts the last line holds exactly the keys of the
// contract and exactly the metrics BENCHMARK.json names for the mode,
// each with its unit.
func checkDriverLine(t *testing.T, sp *spec, rep *Report) {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(rep.driverLine(sp)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: driver line: %v", rep.Workload, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("%s: driver line misses a key", rep.Workload)
	}
	want := sp.EndToEnd
	if rep.Traced {
		want = sp.PerLayer
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s traced=%v: %d metrics, want %d", rep.Workload, rep.Traced, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s traced=%v: metric %s missing", rep.Workload, rep.Traced, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", rep.Workload, m.Name, got.Unit, m.Unit)
		case !rep.Traced && *got.Value == 0:
			t.Errorf("%s: end-to-end metric %s is zero", rep.Workload, m.Name)
		}
	}
}

// checkSelfTimes reloads a span file and asserts that the self times
// under each root sum to the root span.
func checkSelfTimes(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	if err := json.Unmarshal(data, &tr.spans); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, rs := range tr.shares() {
		total := 0.0
		for _, s := range rs.ByLayer {
			total += s
		}
		if math.Abs(total-rs.Seconds) > 1e-6 {
			t.Errorf("%s: root %s rep %d: self times sum to %.9f s, root span is %.9f s", path, rs.Root.Name, rs.Root.Rep, total, rs.Seconds)
		}
	}
}

// TestSelfTimeUnderOverlap pins the definition: a span's self time is
// its duration minus the union of its children's intervals.
func TestSelfTimeUnderOverlap(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "rep", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a.x", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "b.y", StartNS: 40, EndNS: 90}, // overlaps a.x by 20
		{ID: 4, Parent: 2, Name: "c.z", StartNS: 20, EndNS: 30},
	}}
	self := tr.selfTimes()
	want := []float64{20e-9, 40e-9, 50e-9, 10e-9}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-15 {
			t.Errorf("span %d: self %v, want %v", i+1, self[i], want[i])
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "work_s", Better: "lower"}
	higher := specMetric{Name: "lookups_per_s", Better: "higher"}
	tight := func(v float64) Reading { return Reading{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) Reading { return Reading{Value: v, Q1: v * 0.8, Q3: v * 1.2} }
	for _, c := range []struct {
		m    specMetric
		a, b Reading
		want string
	}{
		{lower, tight(1), tight(1.05), "ok"},
		{lower, tight(1), tight(1.2), "regressed"},
		{lower, tight(1), tight(0.8), "improved"},
		{higher, tight(1), tight(0.8), "regressed"},
		{higher, tight(1), tight(1.2), "improved"},
		{lower, wide(1), tight(1.2), "unresolved"},
	} {
		if got := judge(c.m, c.a, c.b, 0.10); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
