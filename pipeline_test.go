package blast

// Tests of the staged Pipeline API: option validation, byte-identical
// equivalence of legacy Run / staged phases / Index.Pairs across the
// configuration axes, context cancellation, progress reporting, and the
// candidate-serving Index.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"blast/internal/datasets"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/weights"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions must validate: %v", err)
	}
	mutations := map[string]func(*Options){
		"zero value":        func(o *Options) { *o = Options{} },
		"alpha zero":        func(o *Options) { o.Alpha = 0 },
		"alpha above one":   func(o *Options) { o.Alpha = 1.5 },
		"purge zero":        func(o *Options) { o.PurgeRatio = 0 },
		"purge above one":   func(o *Options) { o.PurgeRatio = 1.01 },
		"filter negative":   func(o *Options) { o.FilterRatio = -0.2 },
		"filter above one":  func(o *Options) { o.FilterRatio = 2 },
		"c zero":            func(o *Options) { o.C = 0 },
		"c negative":        func(o *Options) { o.C = -1 },
		"d zero":            func(o *Options) { o.D = 0 },
		"k below -1":        func(o *Options) { o.K = -2 },
		"negative workers":  func(o *Options) { o.Workers = -3 },
		"unknown induction": func(o *Options) { o.Induction = Induction(42) },
		"unknown pruning":   func(o *Options) { o.Pruning = metablocking.Pruning(42) },
		"unknown scheme":    func(o *Options) { o.Scheme = weights.Scheme{Kind: 99} },
		"lsh zero rows":     func(o *Options) { o.LSH = &LSHOptions{Rows: 0, Bands: 10} },
	}
	for name, mutate := range mutations {
		opt := DefaultOptions()
		mutate(&opt)
		if err := opt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid options", name)
		}
	}
	// An unknown weighting kind once passed Validate and panicked in a
	// graph worker at the first build.
	unknown := DefaultOptions()
	unknown.Scheme = weights.Scheme{Kind: 99}
	if err := unknown.Validate(); err == nil || !strings.Contains(err.Error(), "Scheme.Kind") {
		t.Errorf("Scheme.Kind 99: Validate = %v, want an error naming Scheme.Kind", err)
	}
	// Run and NewPipeline must reject what Validate rejects.
	bad := DefaultOptions()
	bad.C = -1
	if _, err := Run(datasets.PaperExample(), bad); err == nil {
		t.Error("Run accepted invalid options")
	}
	if _, err := NewPipeline(bad); err == nil {
		t.Error("NewPipeline accepted invalid options")
	}
}

// TestOptionsValidateRejectsNonFinite: every range check on a float
// option rejects NaN and ±Inf and names the field — NaN compares false
// against any bound, so a check written as "x <= 0" lets it through (a
// NaN C once retained no edge at all).
func TestOptionsValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Options, float64){
		"Alpha":       func(o *Options, v float64) { o.Alpha = v },
		"PurgeRatio":  func(o *Options, v float64) { o.PurgeRatio = v },
		"FilterRatio": func(o *Options, v float64) { o.FilterRatio = v },
		"C":           func(o *Options, v float64) { o.C = v },
		"D":           func(o *Options, v float64) { o.D = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			opt := DefaultOptions()
			set(&opt, v)
			err := opt.Validate()
			if err == nil || !strings.Contains(err.Error(), "blast: "+name+" = ") {
				t.Errorf("%s = %v: Validate = %v, want an error naming %s", name, v, err, name)
			}
			if _, err := NewPipeline(opt); err == nil {
				t.Errorf("%s = %v: NewPipeline accepted it", name, v)
			}
		}
	}
}

// assertSamePairs fails unless the two pair lists are byte-identical.
func assertSamePairs(t *testing.T, label string, want, got []model.IDPair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestStagedEquivalenceMatrix: across Induction x Scheme x Pruning, on
// a registry slice, legacy Run, staged MetaBlock and an Index built
// over the same blocks agree — the harness's start state, no ops.
func TestStagedEquivalenceMatrix(t *testing.T) {
	space{
		data:      []data{registryData("ar1", 0.03, 8, 0)},
		induction: []Induction{LMI, AC, NoInduction},
		schemes:   []weights.Scheme{{Kind: weights.ChiSquared, Entropy: true}, {Kind: weights.JS}},
		prunings:  allPrunings,
	}.run(t)
}

// TestStagedEquivalenceRandom: the same start-state agreement over
// arbitrary random dirty collections and randomized configuration axes.
func TestStagedEquivalenceRandom(t *testing.T) {
	space{
		data:      []data{bytesData},
		induction: []Induction{LMI, AC, NoInduction},
		schemes:   schemesOf(weights.CBS, weights.ARCS, weights.ChiSquared),
		prunings:  allPrunings,
		cases:     25,
	}.run(t)
}

// TestIndexCandidatesConsistent: the union of every profile's candidate
// list reconstructs exactly the retained pair set, weights are ordered
// descending, and clean-clean candidates stay cross-source (the
// harness's consistency check, here on two registry datasets).
func TestIndexCandidatesConsistent(t *testing.T) {
	space{data: []data{registryData("ar1", 0.05, 3, 0), registryData("census", 0.2, 3, 0)}}.run(t)
}

// TestIndexThresholds: under BlastWNP the per-node threshold is the
// node's maximum adjacent weight divided by C, exposed for the online
// serving and incremental-update paths.
func TestIndexThresholds(t *testing.T) {
	ds := datasets.AR1(0.05, 5)
	opt := DefaultOptions()
	opt.C = 4
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.BuildIndex(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i := 0; i < ix.NumProfiles(); i++ {
		maxW := 0.0
		for _, c := range ix.Candidates(i) {
			if c.Weight > maxW {
				maxW = c.Weight
			}
		}
		th := ix.Threshold(i)
		if maxW > 0 && th <= 0 {
			t.Fatalf("profile %d has candidates but zero threshold", i)
		}
		if th > 0 && maxW > 0 && maxW < th {
			// Candidates must clear the BLAST edge criterion, which is at
			// least theta_i/D-related; the per-node max weight can never
			// be below theta_i = max/C for C >= 1.
			t.Fatalf("profile %d: max candidate weight %v below threshold %v", i, maxW, th)
		}
		if th > 0 {
			seen++
		}
	}
	if seen == 0 {
		t.Error("no positive thresholds on a dataset with edges")
	}
	if ix.Threshold(-1) != 0 || ix.Threshold(1<<30) != 0 {
		t.Error("out-of-range thresholds must be zero")
	}
}

// TestSchemaReuseAcrossPipelines: the headline staged scenario — one
// Schema and one Blocks artifact feeding a C sweep (the harness's
// stages) — matches the per-configuration full runs exactly.
func TestSchemaReuseAcrossPipelines(t *testing.T) {
	space{data: []data{registryData("census", 0.2, 11, 0)}, c: []float64{1, 2, 4}}.run(t)
}

// TestPipelineCancelledContext: a context cancelled before a phase
// starts makes every phase return ctx.Err() without output.
func TestPipelineCancelledContext(t *testing.T) {
	ds := datasets.AR1(0.05, 4)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	live := context.Background()
	sch, err := p.InduceSchema(live, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(live, ds, sch)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.InduceSchema(cancelled, ds); err != context.Canceled {
		t.Errorf("InduceSchema: err = %v, want context.Canceled", err)
	}
	if _, err := p.Block(cancelled, ds, sch); err != context.Canceled {
		t.Errorf("Block: err = %v, want context.Canceled", err)
	}
	if _, err := p.MetaBlock(cancelled, blocks); err != context.Canceled {
		t.Errorf("MetaBlock: err = %v, want context.Canceled", err)
	}
	if _, err := p.IndexBlocks(cancelled, blocks); err != context.Canceled {
		t.Errorf("IndexBlocks: err = %v, want context.Canceled", err)
	}
	if _, err := p.Run(cancelled, ds); err != context.Canceled {
		t.Errorf("Run: err = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := p.Run(expired, ds); err != context.DeadlineExceeded {
		t.Errorf("expired Run: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPipelineCancellationMidRunNoLeak races real cancellations against
// pipeline runs (parallel workers included) and asserts that a cancelled
// run reports ctx.Err() and that no goroutines outlive their run. Run
// with -race this also exercises the worker-chunk cancellation paths for
// data races.
func TestPipelineCancellationMidRunNoLeak(t *testing.T) {
	ds := datasets.AR1(0.1, 6)
	opt := DefaultOptions()
	opt.Workers = 4
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := p.Run(ctx, ds)
			done <- err
		}()
		time.Sleep(delay)
		cancel()
		select {
		case err := <-done:
			if err != nil && err != context.Canceled {
				t.Fatalf("delay %v: err = %v, want nil or context.Canceled", delay, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("delay %v: cancelled run did not return", delay)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked after cancelled runs: %d > %d", n, base)
	}
}

// TestProgressObserver: the Progress callback sees every phase of a full
// staged run, in order, with non-negative durations.
func TestProgressObserver(t *testing.T) {
	ds := datasets.AR1(0.03, 9)
	var phases []string
	opt := DefaultOptions()
	opt.Progress = func(phase string, d time.Duration) {
		if d < 0 {
			t.Errorf("phase %s: negative duration", phase)
		}
		phases = append(phases, phase)
	}
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	want := []string{"induce", "block", "graph", "weight", "prune"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
	// BuildIndex additionally reports the index freeze.
	phases = nil
	if _, err := p.BuildIndex(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if len(phases) == 0 || phases[len(phases)-1] != "index" {
		t.Errorf("BuildIndex phases = %v, want trailing \"index\"", phases)
	}
}

// TestMBKeyMatchesSprintf: the strconv-based restructured-block key is
// byte-identical to the fmt formulation it replaced.
func TestMBKeyMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 1, 7, 99, 1234, 99999999, 100000000, 123456789, 1 << 30} {
		want := fmt.Sprintf("mb-%08d", i)
		if got := mbKey(i); got != want {
			t.Errorf("mbKey(%d) = %q, want %q", i, got, want)
		}
	}
}
