package experiments

import (
	"fmt"
	"math"
	"strings"

	"blast/internal/attr"
	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/lsh"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/text"
	"blast/internal/weights"
)

// lshThreshold wraps lsh.Threshold for table labeling.
func lshThreshold(rows, bands int) float64 { return lsh.Threshold(rows, bands) }

// SeriesPoint is one (x, y) point of a figure series.
type SeriesPoint struct {
	X, Y float64
}

// Figure5 regenerates the LSH S-curve of Figure 5 (r=5, b=30): the
// analytic candidate probability as a function of Jaccard similarity,
// with the estimated threshold (1/b)^(1/r).
func Figure5() (curve []SeriesPoint, threshold float64) {
	for s := 0.0; s <= 1.0+1e-9; s += 0.02 {
		curve = append(curve, SeriesPoint{X: s, Y: lsh.SCurve(s, 5, 30)})
	}
	return curve, lsh.Threshold(5, 30)
}

// RenderFigure5 renders the S-curve as an ASCII plot.
func RenderFigure5(curve []SeriesPoint, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "LSH S-curve, r=5 b=30 (threshold ~ %.3f)\n", threshold)
	for _, p := range curve {
		if int(p.X*100)%10 != 0 {
			continue
		}
		bar := strings.Repeat("#", int(p.Y*50+0.5))
		fmt.Fprintf(&b, "s=%.2f %6.3f |%s\n", p.X, p.Y, bar)
	}
	return b.String()
}

// Figure8Row is one dataset/variant point of the component ablation.
type Figure8Row struct {
	Dataset string
	Variant string // wnp | chi | wsh | bch
	PC, PQ  float64
}

// Figure8 regenerates the component evaluation of Figure 8 on LMI+Token
// Blocking collections:
//
//	wnp — classical WNP (average of wnp1 and wnp2 over the five classic
//	      weighting schemes);
//	chi — BLAST with the aggregate entropy switched off (pure chi2);
//	wsh — BLAST pruning with the classic weighting schemes adapted to
//	      aggregate entropy (average over schemes);
//	bch — full BLAST (chi2 * h).
func Figure8(cfg Config, names []string) ([]Figure8Row, error) {
	if names == nil {
		names = datasets.CleanCleanNames()
	}
	var out []Figure8Row
	for _, name := range names {
		ds, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		blocks, _ := buildBlocks(ds, "L", nil)
		g := graph.BuildCSR(blocks)

		// wnp: average of wnp1 and wnp2 across classic schemes.
		w1 := averageClassic(g, metablocking.WNP1, ds.Truth)
		w2 := averageClassic(g, metablocking.WNP2, ds.Truth)
		out = append(out, Figure8Row{Dataset: name, Variant: "wnp",
			PC: (w1.PC + w2.PC) / 2, PQ: (w1.PQ + w2.PQ) / 2})

		// chi: BLAST weighting without entropy.
		res := runCell(g, metablocking.Config{
			Scheme:  weights.Scheme{Kind: weights.ChiSquared},
			Pruning: metablocking.BlastWNP, C: 2, D: 2,
		})
		q := metrics.EvaluatePairs(res.Pairs, ds.Truth)
		out = append(out, Figure8Row{Dataset: name, Variant: "chi", PC: q.PC, PQ: q.PQ})

		// wsh: classic schemes scaled by entropy, BLAST pruning, averaged.
		var pc, pq float64
		for _, k := range weights.Classic() {
			res := runCell(g, metablocking.Config{
				Scheme:  weights.Scheme{Kind: k, Entropy: true},
				Pruning: metablocking.BlastWNP, C: 2, D: 2,
			})
			q := metrics.EvaluatePairs(res.Pairs, ds.Truth)
			pc += q.PC
			pq += q.PQ
		}
		n := float64(len(weights.Classic()))
		out = append(out, Figure8Row{Dataset: name, Variant: "wsh", PC: pc / n, PQ: pq / n})

		// bch: full BLAST.
		res = runCell(g, metablocking.Config{
			Scheme: weights.Blast(), Pruning: metablocking.BlastWNP, C: 2, D: 2,
		})
		q = metrics.EvaluatePairs(res.Pairs, ds.Truth)
		out = append(out, Figure8Row{Dataset: name, Variant: "bch", PC: q.PC, PQ: q.PQ})
	}
	return out, nil
}

// RenderFigure8 formats the ablation series.
func RenderFigure8(rows []Figure8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-5s %8s %10s\n", "dataset", "var", "PC(%)", "PQ(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-5s %8.2f %10.4f\n", r.Dataset, r.Variant, r.PC*100, r.PQ*100)
	}
	return b.String()
}

// Figure9Row compares LMI and AC on one dataset.
type Figure9Row struct {
	Dataset string
	PCLMI   float64
	PCAC    float64
	// DeltaPQ is (PQ_LMI - PQ_AC) / PQ_AC, positive when LMI wins.
	DeltaPQ float64
}

// Figure9 regenerates the LMI-vs-AC comparison: full BLAST runs whose
// Phase 1 uses LMI or AC respectively.
func Figure9(cfg Config, names []string) ([]Figure9Row, error) {
	if names == nil {
		names = datasets.CleanCleanNames()
	}
	var out []Figure9Row
	for _, name := range names {
		ds, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		run := func(induction func([]attr.Profile) *attr.Partitioning) metrics.Quality {
			profiles := attr.ExtractProfiles(ds, text.NewTokenizer())
			part := induction(profiles)
			c := blocking.Build(ds, text.NewTokenizer(), part.KeyFunc())
			c = blocking.CleanWorkflow(c, 0.5, 0.8)
			res := metablocking.Run(c, metablocking.DefaultConfig())
			return metrics.EvaluatePairs(res.Pairs, ds.Truth)
		}
		lmiQ := run(func(p []attr.Profile) *attr.Partitioning {
			return attr.LMI(p, ds.Kind, attr.DefaultConfig())
		})
		acQ := run(func(p []attr.Profile) *attr.Partitioning {
			return attr.AC(p, ds.Kind, attr.DefaultConfig())
		})
		out = append(out, Figure9Row{Dataset: name, PCLMI: lmiQ.PC, PCAC: acQ.PC, DeltaPQ: metrics.DeltaPQ(acQ, lmiQ)})
	}
	return out, nil
}

// RenderFigure9 formats the comparison.
func RenderFigure9(rows []Figure9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "dataset", "PC LMI(%)", "PC AC(%)", "dPQ(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10.2f %10.2f %+10.2f\n", r.Dataset, r.PCLMI*100, r.PCAC*100, r.DeltaPQ*100)
	}
	return b.String()
}

// Figure10Row is one LSH configuration point of the threshold sweep.
type Figure10Row struct {
	Rows, Bands int
	Threshold   float64
	PC          float64
}

// Figure10 regenerates the LSH threshold sweep of Figure 10: PC of the
// block collection produced by LSH-LMI + Token Blocking with the glue
// cluster DISABLED, as the estimated threshold grows. Below the safe
// threshold PC holds; above it, LMI misses similar attributes, tokens
// are dropped with their attributes, and PC degrades.
func Figure10(cfg Config) ([]Figure10Row, error) {
	ds, err := cfg.load("dbp")
	if err != nil {
		return nil, err
	}
	profiles := attr.ExtractProfiles(ds, text.NewTokenizer())
	var out []Figure10Row
	for _, rb := range [][2]int{{2, 100}, {3, 90}, {4, 80}, {5, 60}, {5, 30}, {6, 35}, {7, 25}, {8, 18}, {10, 15}} {
		r, bn := rb[0], rb[1]
		c := attr.Config{Alpha: 0.9, Glue: false, LSH: &attr.LSHConfig{Rows: r, Bands: bn, Seed: cfg.Seed}}
		part := attr.LMI(profiles, ds.Kind, c)
		blocks := blocking.Build(ds, text.NewTokenizer(), part.KeyFunc())
		q := metrics.EvaluateBlocks(blocks, ds.Truth)
		out = append(out, Figure10Row{Rows: r, Bands: bn, Threshold: lsh.Threshold(r, bn), PC: q.PC})
	}
	return out, nil
}

// RenderFigure10 formats the sweep.
func RenderFigure10(rows []Figure10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s\n", "(r,b)", "threshold", "PC(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "(%2d,%3d)     %10.3f %8.2f\n", r.Rows, r.Bands, r.Threshold, r.PC*100)
	}
	return b.String()
}

// round2 rounds to two decimals (report helpers).
func round2(x float64) float64 { return math.Round(x*100) / 100 }
