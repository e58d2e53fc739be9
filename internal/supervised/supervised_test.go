package supervised

import (
	"fmt"
	"math"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/stats"
)

func TestSVMLearnsLinearlySeparable(t *testing.T) {
	// y = +1 iff x0 + x1 > 1 with a margin.
	rng := stats.NewRNG(3)
	var xs [][]float64
	var ys []int
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*2, rng.Float64()*2
		s := a + b
		if s > 0.8 && s < 1.2 {
			continue // margin gap
		}
		xs = append(xs, []float64{a, b})
		if s > 1 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, -1)
		}
	}
	m := Train(xs, ys, TrainConfig{Seed: 7})
	errs := 0
	for i, x := range xs {
		if m.Predict(x) != (ys[i] > 0) {
			errs++
		}
	}
	if rate := float64(errs) / float64(len(xs)); rate > 0.03 {
		t.Errorf("training error %.3f, want <= 0.03", rate)
	}
}

func TestSVMHandlesConstantFeature(t *testing.T) {
	xs := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	ys := []int{-1, -1, 1, 1}
	m := Train(xs, ys, TrainConfig{Seed: 1})
	if !m.Predict([]float64{4, 5}) || m.Predict([]float64{1, 5}) {
		t.Error("constant feature broke training")
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":  func() { Train(nil, nil, TrainConfig{}) },
		"ragged": func() { Train([][]float64{{1, 2}, {1}}, []int{1, -1}, TrainConfig{}) },
		"len":    func() { Train([][]float64{{1}}, []int{1, -1}, TrainConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s input should panic", name)
				}
			}()
			fn()
		}()
	}
}

// entryOf returns the position of u's adjacency entry for neighbor v.
func entryOf(t *testing.T, g *graph.CSR, u, v int32) int64 {
	t.Helper()
	for p := g.Offsets[u]; p < g.Offsets[u+1]; p++ {
		if g.Neighbors[p] == v {
			return p
		}
	}
	t.Fatalf("edge (%d,%d) missing", u, v)
	return -1
}

func TestFeaturesPaperExample(t *testing.T) {
	g := graph.BuildCSR(blocking.TokenBlocking(datasets.PaperExample()))
	p := entryOf(t, g, 0, 2) // p1-p3
	f := Features(g, 0, 2, p, nil)
	if len(f) != NumFeatures {
		t.Fatalf("features len = %d, want %d", len(f), NumFeatures)
	}
	if f[3] != 4 { // CBS
		t.Errorf("CBS feature = %v, want 4", f[3])
	}
	if f[2] <= 0 || f[2] > 1 { // JS
		t.Errorf("JS feature = %v, want in (0,1]", f[2])
	}
	if f[1] <= 3 { // ARCS = 3 + 1/6
		t.Errorf("ARCS feature = %v, want > 3", f[1])
	}
	for i, v := range f {
		if v < 0 {
			t.Errorf("feature %d negative: %v", i, v)
		}
	}
	// Buffer reuse.
	buf := make([]float64, NumFeatures)
	f2 := Features(g, 0, 2, p, buf)
	for i := range f {
		if f[i] != f2[i] {
			t.Error("buffer reuse changed features")
		}
	}
}

// syntheticBlocks builds a dirty block collection with `n` matching pairs
// (5 private blocks each) and `n` superfluous pairs (1 shared block
// each), returning the collection and truth.
func syntheticBlocks(n int) (*blocking.Collection, *model.GroundTruth) {
	var blocks []blocking.Block
	truth := model.NewGroundTruth()
	for i := 0; i < n; i++ {
		u, v := int32(2*i), int32(2*i+1)
		truth.Add(int(u), int(v))
		for b := 0; b < 5; b++ {
			blocks = append(blocks, blocking.Block{
				Key: fmt.Sprintf("m%03d_%d", i, b), P1: []int32{u, v}, Entropy: 1,
			})
		}
	}
	for i := 0; i < n; i++ {
		u, v := int32(2*n+2*i), int32(2*n+2*i+1)
		blocks = append(blocks, blocking.Block{
			Key: fmt.Sprintf("s%03d", i), P1: []int32{u, v}, Entropy: 1,
		})
	}
	return blocking.FromBlocks(model.Dirty, 4*n, 0, blocks), truth
}

// syntheticGraph is the CSR of syntheticBlocks.
func syntheticGraph(n int) (*graph.CSR, *model.GroundTruth) {
	c, truth := syntheticBlocks(n)
	return graph.BuildCSR(c), truth
}

func TestRunSeparatesMatchesFromSuperfluous(t *testing.T) {
	g, truth := syntheticGraph(60)
	res := Run(g, truth, defaultConfig())
	q := metrics.EvaluatePairs(res.Pairs, truth)
	if q.PC < 0.95 {
		t.Errorf("supervised PC = %v, want >= 0.95", q.PC)
	}
	if q.PQ < 0.9 {
		t.Errorf("supervised PQ = %v, want >= 0.9 (easy separation)", q.PQ)
	}
	if res.TrainSize == 0 || res.Model == nil {
		t.Error("training should have happened")
	}
	// 10% of 60 positives = 6, balanced: 12 examples.
	if res.TrainSize != 12 {
		t.Errorf("TrainSize = %d, want 12", res.TrainSize)
	}
}

func TestRunDegenerateNoPositives(t *testing.T) {
	g, _ := syntheticGraph(5)
	empty := model.NewGroundTruth()
	res := Run(g, empty, defaultConfig())
	if len(res.Pairs) != g.NumEdges() {
		t.Errorf("degenerate run should retain all %d edges, got %d", g.NumEdges(), len(res.Pairs))
	}
	if res.Model != nil {
		t.Error("no model should be trained without labels")
	}
}

func TestRunDegenerateAllPositives(t *testing.T) {
	c := blocking.FromBlocks(model.Dirty, 4, 0, []blocking.Block{
		{Key: "a", P1: []int32{0, 1}}, {Key: "b", P1: []int32{2, 3}},
	})
	g := graph.BuildCSR(c)
	truth := model.NewGroundTruth()
	truth.Add(0, 1)
	truth.Add(2, 3)
	res := Run(g, truth, defaultConfig())
	if len(res.Pairs) != 2 {
		t.Errorf("all-positive graph should retain everything, got %d", len(res.Pairs))
	}
}

func TestRunDeterministic(t *testing.T) {
	g, truth := syntheticGraph(40)
	a := Run(g, truth, defaultConfig())
	b := Run(g, truth, defaultConfig())
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("nondeterministic: %d vs %d pairs", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("nondeterministic pair order")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	g, truth := syntheticGraph(30)
	res := Run(g, truth, Config{TrainFraction: -1, NegativeRatio: 0, Seed: 2})
	if res.TrainSize == 0 {
		t.Error("defaults should be applied and training performed")
	}
}

// defaultConfig mirrors the paper's setup: 10% of matches for training,
// balanced negatives.
func defaultConfig() Config {
	return Config{TrainFraction: 0.10, NegativeRatio: 1, Seed: 1}
}

// referenceFeatures is the feature extraction as it read the edge list
// before the baseline moved onto CSR rows, kept verbatim as the oracle.
func referenceFeatures(g *edgelist.Graph, e *edgelist.Edge, out []float64) []float64 {
	if cap(out) < NumFeatures {
		out = make([]float64, NumFeatures)
	}
	out = out[:NumFeatures]
	bu := float64(g.BlockCounts[e.U])
	bv := float64(g.BlockCounts[e.V])
	common := float64(e.Common)
	total := float64(g.TotalBlocks)

	logf := func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return math.Log(x)
	}
	out[0] = common * logf(total/bu) * logf(total/bv)
	out[1] = e.ARCS
	if d := bu + bv - common; d > 0 {
		out[2] = common / d
	} else {
		out[2] = 0
	}
	out[3] = common
	if ne := float64(g.NumEdges()); ne > 0 {
		out[4] = (float64(g.Degrees[e.U]) + float64(g.Degrees[e.V])) / ne
	} else {
		out[4] = 0
	}
	if total > 0 {
		out[5] = (bu + bv) / total
	} else {
		out[5] = 0
	}
	return out
}

// referenceRun drives the same routine from the edge-list reference.
func referenceRun(g *edgelist.Graph, truth *model.GroundTruth, cfg Config) *Result {
	return classify(len(g.Edges),
		func(i int) model.IDPair { return g.Edges[i].Pair() },
		func(i int, out []float64) []float64 { return referenceFeatures(g, &g.Edges[i], out) },
		truth, cfg)
}

// checkMatchesReference pins the baseline over CSR rows to the edge-list
// reference on one collection: the same edges in the same order with
// bitwise-equal feature vectors, hence the same sampling draws, the same
// trained model and the same retained pairs.
func checkMatchesReference(t *testing.T, label string, c *blocking.Collection, truth *model.GroundTruth, cfg Config) *Result {
	t.Helper()
	csr, ref := graph.BuildCSR(c), edgelist.Build(c)
	i := 0
	csr.Canonical(func(u, v int32, p int64) {
		e := &ref.Edges[i]
		if e.U != u || e.V != v {
			t.Fatalf("%s: canonical edge %d = (%d,%d), reference has (%d,%d)", label, i, u, v, e.U, e.V)
		}
		got, want := Features(csr, u, v, p, nil), referenceFeatures(ref, e, nil)
		for f := range want {
			if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
				t.Fatalf("%s: edge (%d,%d) feature %d = %v (%#x), reference %v (%#x)", label, u, v, f,
					got[f], math.Float64bits(got[f]), want[f], math.Float64bits(want[f]))
			}
		}
		i++
	})
	if i != len(ref.Edges) {
		t.Fatalf("%s: %d canonical edges, reference has %d", label, i, len(ref.Edges))
	}

	got, want := Run(csr, truth, cfg), referenceRun(ref, truth, cfg)
	if got.TrainSize != want.TrainSize || (got.Model == nil) != (want.Model == nil) {
		t.Fatalf("%s: trained on %d examples (model %v), reference on %d (model %v)",
			label, got.TrainSize, got.Model != nil, want.TrainSize, want.Model != nil)
	}
	if got.Model != nil {
		if math.Float64bits(got.Model.B) != math.Float64bits(want.Model.B) {
			t.Fatalf("%s: model bias %v, reference %v", label, got.Model.B, want.Model.B)
		}
		for j := range want.Model.W {
			if math.Float64bits(got.Model.W[j]) != math.Float64bits(want.Model.W[j]) {
				t.Fatalf("%s: model weight %d = %v, reference %v", label, j, got.Model.W[j], want.Model.W[j])
			}
		}
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, reference %d", label, len(got.Pairs), len(want.Pairs))
	}
	for j := range want.Pairs {
		if got.Pairs[j] != want.Pairs[j] {
			t.Fatalf("%s: pair %d = %v, reference %v", label, j, got.Pairs[j], want.Pairs[j])
		}
	}
	return got
}

// TestRunMatchesEdgeListReference: the supervised baseline over CSR rows
// is pinned, not trusted — on the paper example, the synthetic graph and
// AR1, and through both degenerate exits (no positives, no negatives:
// every edge is kept).
func TestRunMatchesEdgeListReference(t *testing.T) {
	paper := datasets.PaperExample()
	checkMatchesReference(t, "paper", blocking.TokenBlocking(paper), paper.Truth, defaultConfig())

	synth, synthTruth := syntheticBlocks(60)
	checkMatchesReference(t, "synthetic", synth, synthTruth, defaultConfig())
	checkMatchesReference(t, "synthetic seed 7", synth, synthTruth, Config{TrainFraction: 0.25, NegativeRatio: 3, Seed: 7})

	res := checkMatchesReference(t, "no positives", synth, model.NewGroundTruth(), defaultConfig())
	if res.Model != nil || len(res.Pairs) != 120 {
		t.Errorf("no positives: model %v, %d pairs, want no model and all 120 edges", res.Model != nil, len(res.Pairs))
	}
	allPos := blocking.FromBlocks(model.Dirty, 4, 0, []blocking.Block{
		{Key: "a", P1: []int32{0, 1}}, {Key: "b", P1: []int32{2, 3}},
	})
	allTruth := model.NewGroundTruth()
	allTruth.Add(0, 1)
	allTruth.Add(2, 3)
	res = checkMatchesReference(t, "no negatives", allPos, allTruth, defaultConfig())
	if res.Model != nil || len(res.Pairs) != 2 {
		t.Errorf("no negatives: model %v, %d pairs, want no model and both edges", res.Model != nil, len(res.Pairs))
	}

	// The sup. MB row's setting: Token Blocking, cleaned, 10% of the
	// matches for training — strong on easy ar1.
	ar1 := datasets.AR1(0.2, 9)
	blocks := blocking.CleanWorkflow(blocking.TokenBlocking(ar1), 0.5, 0.8)
	res = checkMatchesReference(t, "ar1", blocks, ar1.Truth, Config{TrainFraction: 0.10, NegativeRatio: 1, Seed: 42})
	if q := metrics.EvaluatePairs(res.Pairs, ar1.Truth); q.PC < 0.9 || q.PQ < 0.5 {
		t.Errorf("ar1: supervised PC=%v PQ=%v, want strong on easy ar1", q.PC, q.PQ)
	}
}

// TestRunRequiresStatistics: a graph whose statistics were released has
// no features to read.
func TestRunRequiresStatistics(t *testing.T) {
	g, truth := syntheticGraph(5)
	g.ReleaseStats()
	defer func() {
		if recover() == nil {
			t.Error("Run over a graph without statistics should panic")
		}
	}()
	Run(g, truth, defaultConfig())
}
