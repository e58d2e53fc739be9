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

func TestRunPaperExample(t *testing.T) {
	// The Figure 1-3 walkthrough end to end: BLAST retains exactly the
	// two true matches.
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.PurgeRatio = 1.0  // the 4-profile example would purge "abram" at 0.5
	opt.FilterRatio = 1.0 // keep all blocks: the example has no filtering
	res, err := Run(ds, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Quality.PC != 1 || res.Quality.PQ != 1 {
		t.Errorf("PC=%v PQ=%v, want 1/1 (pairs=%v)", res.Quality.PC, res.Quality.PQ, res.Pairs)
	}
	if res.Partitioning == nil || res.Partitioning.NumClusters() < 2 {
		t.Error("LMI should find clusters on the example")
	}
}

func TestRunImprovesPQOverBlocks(t *testing.T) {
	ds := datasets.AR1(0.1, 7)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Quality.PC < 0.95 {
		t.Errorf("PC = %v, want >= 0.95", res.Quality.PC)
	}
	if res.Quality.PQ < 10*res.BlockQuality.PQ {
		t.Errorf("meta-blocking PQ %v should be >> block PQ %v", res.Quality.PQ, res.BlockQuality.PQ)
	}
}

func TestRunBeatsTraditionalMetaBlocking(t *testing.T) {
	// The paper's core claim, on a scaled ar1: BLAST achieves higher F1
	// than traditional WNP with nearly identical PC (|dPC| <= 6%).
	ds := datasets.AR1(0.1, 11)
	blastRes, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	trad := DefaultOptions()
	trad.Induction = NoInduction
	trad.Scheme = weights.Scheme{Kind: weights.JS}
	trad.Pruning = metablocking.WNP2
	tradRes, err := Run(ds, trad)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if blastRes.Quality.F1 <= tradRes.Quality.F1 {
		t.Errorf("BLAST F1 %v should beat wnp2/JS %v", blastRes.Quality.F1, tradRes.Quality.F1)
	}
	if dpc := (blastRes.Quality.PC - tradRes.Quality.PC) / tradRes.Quality.PC; dpc < -0.06 {
		t.Errorf("dPC = %v, want >= -6%%", dpc)
	}
}

func TestRunDirty(t *testing.T) {
	ds := datasets.Census(0.3, 5)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Quality.PC < 0.8 {
		t.Errorf("census PC = %v, want >= 0.8", res.Quality.PC)
	}
	if res.Quality.PQ <= res.BlockQuality.PQ {
		t.Errorf("PQ should improve: %v vs %v", res.Quality.PQ, res.BlockQuality.PQ)
	}
}

func TestRunWithLSH(t *testing.T) {
	ds := datasets.AR1(0.1, 3)
	exact, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.LSH = &LSHOptions{Rows: 5, Bands: 30, Seed: 2}
	approx, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning == nil {
		t.Fatal("AC should produce a partitioning")
	}
	if res.Quality.PC < 0.9 {
		t.Errorf("AC PC = %v", res.Quality.PC)
	}
}

func TestRunValidatesDataset(t *testing.T) {
	bad := &model.Dataset{Name: "bad", Kind: model.CleanClean, E1: model.NewCollection("a")}
	if _, err := Run(bad, DefaultOptions()); err == nil {
		t.Error("invalid dataset should error")
	}
}

func TestRunUnknownInduction(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.Induction = Induction(99)
	if _, err := Run(ds, opt); err == nil {
		t.Error("unknown induction should error")
	}
}

func TestRunNilTransformDefaults(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.Transform = nil
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	if _, err := Run(ds, opt); err != nil {
		t.Errorf("nil transform should default: %v", err)
	}
}

func TestCleanCleanWrapper(t *testing.T) {
	gen := datasets.AR1(0.05, 21)
	res, err := CleanClean(gen.E1, gen.E2, gen.Truth, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Error("no pairs retained")
	}
	// nil truth allowed
	res2, err := CleanClean(gen.E1, gen.E2, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Quality.PC != 0 {
		t.Error("no truth: quality should be zero value")
	}
}

func TestDirtyWrapper(t *testing.T) {
	gen := datasets.Census(0.2, 21)
	res, err := Dirty(gen.E1, gen.Truth, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Error("no pairs retained")
	}
	if _, err := Dirty(gen.E1, nil, DefaultOptions()); err != nil {
		t.Errorf("nil truth should work: %v", err)
	}
}

func TestOverheadDecomposition(t *testing.T) {
	ds := datasets.AR1(0.05, 2)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
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

// TestPairsComparableAndDeduplicated: Run's pairs are comparable and
// distinct (the harness's start state: Run and an Index agree, and the
// Index's candidate lists are comparable and its distinct pairs).
func TestPairsComparableAndDeduplicated(t *testing.T) {
	space{data: []data{registryData("prd", 0.1, 17, 0)}}.run(t)
}

func TestRestructuredBlocks(t *testing.T) {
	ds := datasets.AR1(0.05, 3)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rb := res.RestructuredBlocks()
	if err := rb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rb.Len() != len(res.Pairs) {
		t.Fatalf("blocks = %d, want %d (one per pair)", rb.Len(), len(res.Pairs))
	}
	if rb.AggregateCardinality() != int64(len(res.Pairs)) {
		t.Error("each restructured block must entail exactly one comparison")
	}
	// Dirty variant.
	dd := datasets.Census(0.2, 3)
	dres, err := Run(dd, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	drb := dres.RestructuredBlocks()
	if err := drb.Validate(); err != nil {
		t.Fatalf("dirty Validate: %v", err)
	}
}

func TestLooseSchemaReport(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	res, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	report := res.LooseSchemaReport()
	if report == "" || !containsAll(report, "cluster", "glue", "H=") {
		t.Errorf("report missing sections:\n%s", report)
	}
	// Induction disabled.
	opt.Induction = NoInduction
	res2, _ := Run(ds, opt)
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
	serial, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Workers = 4
	par, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
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
		res, err := Run(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		g := edgelist.Build(res.Blocks)
		g.Weigh(opt.Scheme.Weigher(g.NumEdges(), g.TotalBlocks).Weight)
		want := g.Pairs(edgelist.BlastWNP(g, opt.C, opt.D))
		assertSamePairs(t, ds.Name, want, res.Pairs)
		if q := metrics.EvaluatePairs(want, ds.Truth); q != res.Quality {
			t.Errorf("%s: quality %v differs from the reference's %v", ds.Name, res.Quality, q)
		}
	}
}
