package blast

import (
	"context"
	"strings"
	"testing"

	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/supervised"
	"blast/internal/weights"
)

// runPipeline is NewPipeline, then Pipeline.Run under the background
// context; either failing fails the test.
func runPipeline(t *testing.T, ds *model.Dataset, opt Options) *Result {
	t.Helper()
	p, err := NewPipeline(opt)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	res, err := p.Run(context.Background(), ds)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunPaperExample(t *testing.T) {
	// The Figure 1-3 walkthrough end to end: BLAST retains exactly the
	// two true matches.
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.PurgeRatio = 1.0  // the 4-profile example would purge "abram" at 0.5
	opt.FilterRatio = 1.0 // keep all blocks: the example has no filtering
	res := runPipeline(t, ds, opt)
	if res.Quality.PC != 1 || res.Quality.PQ != 1 {
		t.Errorf("PC=%v PQ=%v, want 1/1 (pairs=%v)", res.Quality.PC, res.Quality.PQ, res.Pairs)
	}
	if res.Partitioning == nil || res.Partitioning.NumClusters() < 2 {
		t.Error("LMI should find clusters on the example")
	}
}

func TestRunImprovesPQOverBlocks(t *testing.T) {
	ds := datasets.AR1(0.1, 7)
	res := runPipeline(t, ds, DefaultOptions())
	if res.Quality.PC < 0.95 {
		t.Errorf("PC = %v, want >= 0.95", res.Quality.PC)
	}
	if bq := metrics.EvaluateBlocks(res.Blocks, ds.Truth); res.Quality.PQ < 10*bq.PQ {
		t.Errorf("meta-blocking PQ %v should be >> block PQ %v", res.Quality.PQ, bq.PQ)
	}
}

func TestRunBeatsTraditionalMetaBlocking(t *testing.T) {
	// The paper's core claim, on a scaled ar1: BLAST achieves higher F1
	// than traditional WNP with nearly identical PC (|dPC| <= 6%).
	ds := datasets.AR1(0.1, 11)
	blastRes := runPipeline(t, ds, DefaultOptions())
	trad := DefaultOptions()
	trad.Induction = NoInduction
	trad.Scheme = weights.Scheme{Kind: weights.JS}
	trad.Pruning = metablocking.WNP2
	tradRes := runPipeline(t, ds, trad)
	if blastRes.Quality.F1 <= tradRes.Quality.F1 {
		t.Errorf("BLAST F1 %v should beat wnp2/JS %v", blastRes.Quality.F1, tradRes.Quality.F1)
	}
	if dpc := (blastRes.Quality.PC - tradRes.Quality.PC) / tradRes.Quality.PC; dpc < -0.06 {
		t.Errorf("dPC = %v, want >= -6%%", dpc)
	}
}

func TestRunDirty(t *testing.T) {
	ds := datasets.Census(0.3, 5)
	res := runPipeline(t, ds, DefaultOptions())
	if res.Quality.PC < 0.8 {
		t.Errorf("census PC = %v, want >= 0.8", res.Quality.PC)
	}
	if bq := metrics.EvaluateBlocks(res.Blocks, ds.Truth); res.Quality.PQ <= bq.PQ {
		t.Errorf("PQ should improve: %v vs %v", res.Quality.PQ, bq.PQ)
	}
}

func TestRunWithLSH(t *testing.T) {
	ds := datasets.AR1(0.1, 3)
	exact := runPipeline(t, ds, DefaultOptions())
	opt := DefaultOptions()
	opt.LSH = &LSHOptions{Rows: 5, Bands: 30, Seed: 2}
	approx := runPipeline(t, ds, opt)
	// ar1 attribute similarities are well above the ~0.5 threshold: LSH
	// must not change the outcome materially.
	if d := approx.Quality.PC - exact.Quality.PC; d < -0.02 || d > 0.02 {
		t.Errorf("LSH changed PC: %v vs %v", approx.Quality.PC, exact.Quality.PC)
	}
}

// TestRunSupervised: the supervised meta-blocking baseline is no pipeline
// option; it composes with the staged artifacts the way the paper's
// comparison rows use it (examples/bibliographic, Tables 4-5) — the CSR
// of a Blocks artifact plus the dataset's ground truth.
func TestRunSupervised(t *testing.T) {
	ds := datasets.AR1(0.1, 9)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	sup := supervised.Run(graph.BuildCSR(blocks.Collection), ds.Truth,
		supervised.Config{TrainFraction: 0.1, NegativeRatio: 1, Seed: 1})
	if q := metrics.EvaluatePairs(sup.Pairs, ds.Truth); q.PC < 0.9 || q.PQ < 0.5 {
		t.Errorf("supervised PC=%v PQ=%v, want strong on easy ar1", q.PC, q.PQ)
	}
}

func TestRunAC(t *testing.T) {
	ds := datasets.AR1(0.05, 13)
	opt := DefaultOptions()
	opt.Induction = AC
	res := runPipeline(t, ds, opt)
	if res.Partitioning == nil {
		t.Fatal("AC should produce a partitioning")
	}
	if res.Quality.PC < 0.9 {
		t.Errorf("AC PC = %v", res.Quality.PC)
	}
}

func TestRunValidatesDataset(t *testing.T) {
	bad := &model.Dataset{Name: "bad", Kind: model.CleanClean, E1: model.NewCollection("a")}
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), bad); err == nil {
		t.Error("invalid dataset should error")
	}
}

func TestRunUnknownInduction(t *testing.T) {
	opt := DefaultOptions()
	opt.Induction = Induction(99)
	if _, err := NewPipeline(opt); err == nil {
		t.Error("unknown induction should error")
	}
}

func TestRunNilTransformDefaults(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.Transform = nil
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	runPipeline(t, ds, opt)
}

// TestCleanCleanWrapper: a clean-clean dataset runs through
// Pipeline.Run with its ground truth and without it; with a nil Truth
// the pipeline still retains pairs and leaves Quality at its zero value.
func TestCleanCleanWrapper(t *testing.T) {
	gen := datasets.AR1(0.05, 21)
	if res := runPipeline(t, gen, DefaultOptions()); len(res.Pairs) == 0 {
		t.Error("no pairs retained")
	}
	ds := *gen
	ds.Truth = nil
	res := runPipeline(t, &ds, DefaultOptions())
	if len(res.Pairs) == 0 {
		t.Error("no truth: no pairs retained")
	}
	if res.Quality != (Result{}).Quality {
		t.Errorf("no truth: Quality = %+v, want the zero value", res.Quality)
	}
}

// TestDirtyWrapper: a dirty dataset runs through Pipeline.Run with its
// ground truth and without it.
func TestDirtyWrapper(t *testing.T) {
	gen := datasets.Census(0.2, 21)
	if res := runPipeline(t, gen, DefaultOptions()); len(res.Pairs) == 0 {
		t.Error("no pairs retained")
	}
	ds := *gen
	ds.Truth = nil
	res := runPipeline(t, &ds, DefaultOptions())
	if len(res.Pairs) == 0 {
		t.Error("no truth: no pairs retained")
	}
	if res.Quality != (Result{}).Quality {
		t.Errorf("no truth: Quality = %+v, want the zero value", res.Quality)
	}
}

func TestOverheadDecomposition(t *testing.T) {
	ds := datasets.AR1(0.05, 2)
	res := runPipeline(t, ds, DefaultOptions())
	if res.Overhead() != res.InductionTime+res.BlockTime+res.MetaTime {
		t.Error("Overhead() mismatch")
	}
}

func TestInductionString(t *testing.T) {
	if LMI.String() != "lmi" || AC.String() != "ac" || NoInduction.String() != "none" {
		t.Error("Induction.String mismatch")
	}
	if Induction(7).String() == "" {
		t.Error("unknown induction should render")
	}
}

// TestPairsComparableAndDeduplicated: the pipeline's pairs are
// comparable and distinct (the harness's start state: MetaBlock and an
// Index agree, and the Index's candidate lists are comparable and its
// distinct pairs).
func TestPairsComparableAndDeduplicated(t *testing.T) {
	space{data: []data{registryData("prd", 0.1, 17, 0)}}.run(t)
}

func TestLooseSchemaReport(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	res := runPipeline(t, ds, opt)
	report := res.LooseSchemaReport()
	if report == "" || !containsAll(report, "cluster", "glue", "H=") {
		t.Errorf("report missing sections:\n%s", report)
	}
	// Induction disabled.
	opt.Induction = NoInduction
	res2 := runPipeline(t, ds, opt)
	if res2.LooseSchemaReport() == "" {
		t.Error("disabled induction should still report")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func TestRunParallelWorkersIdentical(t *testing.T) {
	ds := datasets.PRD(0.2, 6)
	serial := runPipeline(t, ds, DefaultOptions())
	opt := DefaultOptions()
	opt.Workers = 4
	par := runPipeline(t, ds, opt)
	if len(serial.Pairs) != len(par.Pairs) {
		t.Fatalf("worker count changed output: %d vs %d pairs", len(serial.Pairs), len(par.Pairs))
	}
	for i := range serial.Pairs {
		if serial.Pairs[i] != par.Pairs[i] {
			t.Fatal("parallel pairs differ from serial")
		}
	}
}

// TestRunEngineIdentical: the public pipeline returns exactly the pairs
// the test-only edge-list reference retains over the same blocks (the
// Scheme x Pruning x Workers matrix of this contract is
// internal/metablocking's TestEngineEquivalence*).
func TestRunEngineIdentical(t *testing.T) {
	for _, ds := range []*model.Dataset{datasets.AR1(0.1, 9), datasets.Census(0.2, 9)} {
		opt := DefaultOptions()
		res := runPipeline(t, ds, opt)
		g := edgelist.Build(res.Blocks)
		g.Weigh(opt.Scheme.Weigher(g.NumEdges(), g.TotalBlocks).Weight)
		want := g.Pairs(edgelist.BlastWNP(g, opt.C, opt.D))
		assertSamePairs(t, ds.Name, want, res.Pairs)
		if q := metrics.EvaluatePairs(want, ds.Truth); q != res.Quality {
			t.Errorf("%s: quality %v differs from the reference's %v", ds.Name, res.Quality, q)
		}
	}
}
