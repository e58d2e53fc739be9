package supervised

import (
	"math"

	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
)

// NumFeatures is the dimensionality of the per-edge feature vector.
const NumFeatures = 6

// Features computes the schema-agnostic feature vector of the canonical
// edge (u, v), u < v, whose entry in u's adjacency run sits at position
// p of g's entry arrays — the (u, v, p) graph.CSR.Canonical visits. It
// is the feature set of the supervised meta-blocking paper adapted to
// this graph representation; every feature is a function of the
// co-occurrence statistics the CSR entry and header already carry:
//
//	0: CFIBF  — co-occurrence frequency * inverse block frequency
//	            (|B_uv| * log(|B|/|B_u|) * log(|B|/|B_v|), i.e. ECBS);
//	1: RACCB  — reciprocal aggregate cardinality of common blocks
//	            (sum over shared blocks of 1/||b||, i.e. ARCS);
//	2: JS     — Jaccard coefficient of the block sets;
//	3: |B_uv| — raw co-occurrence count (CBS);
//	4: NodeDegree(u)+NodeDegree(v), normalized by the number of edges;
//	5: |B_u|+|B_v|, normalized by the number of blocks.
func Features(g *graph.CSR, u, v int32, p int64, out []float64) []float64 {
	if cap(out) < NumFeatures {
		out = make([]float64, NumFeatures)
	}
	out = out[:NumFeatures]
	bu := float64(g.BlockCounts[u])
	bv := float64(g.BlockCounts[v])
	common := float64(g.Common[p])
	total := float64(g.TotalBlocks)

	logf := func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return math.Log(x)
	}
	out[0] = common * logf(total/bu) * logf(total/bv)
	out[1] = g.ARCS[p]
	if d := bu + bv - common; d > 0 {
		out[2] = common / d
	} else {
		out[2] = 0
	}
	out[3] = common
	if ne := float64(g.NumEdges()); ne > 0 {
		out[4] = (float64(g.Degree(int(u))) + float64(g.Degree(int(v)))) / ne
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

// Config controls supervised meta-blocking.
type Config struct {
	// TrainFraction is the fraction of ground-truth matches used as
	// positive examples (paper: 0.10).
	TrainFraction float64
	// NegativeRatio is the number of negative samples per positive
	// (default 1: balanced, as in the supervised meta-blocking paper).
	NegativeRatio int
	// Seed drives sampling and SGD (deterministic).
	Seed uint64
}

// Result is the outcome of a supervised meta-blocking run.
type Result struct {
	// Pairs are the retained comparisons (classified positive), sorted.
	Pairs []model.IDPair
	// Model is the trained classifier.
	Model *SVM
	// TrainSize is the number of labeled examples used.
	TrainSize int
}

// Run trains on a sample of the ground truth and classifies every edge
// of the (already built) blocking graph, returning the retained pairs.
// g must be resident and still bear its co-occurrence statistics (a
// graph.BuildCSR result before ReleaseStats); it is only read, so one
// graph can serve this baseline and any number of metablocking.RunOnCSR
// cells. Edges are visited in canonical (u, v) order, which fixes the
// sampling draws. Edges used for training are classified like any other
// (the paper's setting evaluates the final block collection as a whole).
func Run(g *graph.CSR, truth *model.GroundTruth, cfg Config) *Result {
	if g.Common == nil && g.NumEntries() > 0 {
		panic("supervised: the graph must be resident with its co-occurrence statistics")
	}
	type edge struct {
		u, v int32
		p    int64
	}
	edges := make([]edge, 0, g.NumEdges())
	g.Canonical(func(u, v int32, p int64) { edges = append(edges, edge{u, v, p}) })
	return classify(len(edges),
		func(i int) model.IDPair { return model.IDPair{U: edges[i].u, V: edges[i].v} },
		func(i int, out []float64) []float64 { return Features(g, edges[i].u, edges[i].v, edges[i].p, out) },
		truth, cfg)
}

// classify is the supervised routine over n edges in canonical order,
// edge i being the comparison pair(i) described by features(i, buf). It
// knows nothing of how the graph is stored, which is what lets the tests
// drive the identical routine from the edge-list reference.
func classify(n int, pair func(i int) model.IDPair, features func(i int, out []float64) []float64, truth *model.GroundTruth, cfg Config) *Result {
	if cfg.TrainFraction <= 0 || cfg.TrainFraction > 1 {
		cfg.TrainFraction = 0.10
	}
	if cfg.NegativeRatio <= 0 {
		cfg.NegativeRatio = 1
	}
	rng := stats.NewRNG(cfg.Seed)

	// Index edges by match/non-match.
	var posIdx, negIdx []int
	for i := 0; i < n; i++ {
		if p := pair(i); truth.Contains(int(p.U), int(p.V)) {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}

	res := &Result{}
	if len(posIdx) == 0 || len(negIdx) == 0 {
		// Degenerate graph: no training signal; retain every edge (the
		// conservative choice preserves PC).
		res.Pairs = make([]model.IDPair, n)
		for i := range res.Pairs {
			res.Pairs[i] = pair(i)
		}
		return res
	}

	nPos := int(math.Ceil(cfg.TrainFraction * float64(len(posIdx))))
	if nPos < 1 {
		nPos = 1
	}
	if nPos > len(posIdx) {
		nPos = len(posIdx)
	}
	nNeg := nPos * cfg.NegativeRatio
	if nNeg > len(negIdx) {
		nNeg = len(negIdx)
	}

	rng.Shuffle(len(posIdx), func(i, j int) { posIdx[i], posIdx[j] = posIdx[j], posIdx[i] })
	rng.Shuffle(len(negIdx), func(i, j int) { negIdx[i], negIdx[j] = negIdx[j], negIdx[i] })

	xs := make([][]float64, 0, nPos+nNeg)
	ys := make([]int, 0, nPos+nNeg)
	for _, i := range posIdx[:nPos] {
		xs = append(xs, features(i, nil))
		ys = append(ys, +1)
	}
	for _, i := range negIdx[:nNeg] {
		xs = append(xs, features(i, nil))
		ys = append(ys, -1)
	}
	svm := Train(xs, ys, TrainConfig{Seed: cfg.Seed})

	var pairs []model.IDPair
	buf := make([]float64, NumFeatures)
	for i := 0; i < n; i++ {
		buf = features(i, buf)
		if svm.Predict(buf) {
			pairs = append(pairs, pair(i))
		}
	}
	res.Pairs = pairs
	res.Model = svm
	res.TrainSize = len(xs)
	return res
}
