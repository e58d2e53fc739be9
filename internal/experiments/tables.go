package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blast/internal/attr"
	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/supervised"
	"blast/internal/text"
	"blast/internal/weights"
)

// Table2 regenerates the dataset characteristics table.
func Table2(cfg Config) ([]datasets.Stats, error) {
	var out []datasets.Stats
	for _, name := range datasets.CleanCleanNames() {
		ds, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		out = append(out, datasets.Describe(ds))
	}
	return out, nil
}

// RenderTable2 formats the stats like Table 2.
func RenderTable2(rows []datasets.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %16s %8s\n", "", "|E1|-|E2|", "|A1|-|A2|", "nvp", "|D|")
	for _, s := range rows {
		fmt.Fprintf(&b, "%-6s %5d-%6d %5d-%6d %7d-%8d %8d\n",
			s.Name, s.E1, s.E2, s.A1, s.A2, s.NVP1, s.NVP2, s.Dups)
	}
	return b.String()
}

// Table3Row is one dataset/variant row of Table 3: the block collection
// before ("baseline") and after Block Purging + Block Filtering.
type Table3Row struct {
	Dataset string
	Variant string // "T" (Token Blocking) or "L" (Token Blocking + LMI)

	BasePC, BasePQ float64
	BaseCard       int64
	FiltPC, FiltPQ float64
	FiltCard       int64
}

// Table3 regenerates the block-collection characteristics of Table 3 for
// the given datasets (default: all clean-clean benchmarks).
func Table3(cfg Config, names []string) ([]Table3Row, error) {
	if names == nil {
		names = datasets.CleanCleanNames()
	}
	var out []Table3Row
	for _, name := range names {
		ds, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		for _, variant := range []string{"T", "L"} {
			key := blocking.TokenKey
			if variant == "L" {
				profiles := attr.ExtractProfiles(ds, text.NewTokenizer())
				part := attr.LMI(profiles, ds.Kind, attr.DefaultConfig())
				key = part.KeyFunc()
			}
			base := blocking.Build(ds, text.NewTokenizer(), key)
			baseQ := metrics.EvaluateBlocks(base, ds.Truth)
			filt := blocking.CleanWorkflow(base, 0.5, 0.8)
			filtQ := metrics.EvaluateBlocks(filt, ds.Truth)
			out = append(out, Table3Row{
				Dataset: name, Variant: variant,
				BasePC: baseQ.PC, BasePQ: baseQ.PQ, BaseCard: baseQ.Comparisons,
				FiltPC: filtQ.PC, FiltPQ: filtQ.PQ, FiltCard: filtQ.Comparisons,
			})
		}
	}
	return out, nil
}

// RenderTable3 formats rows like Table 3.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-2s | %8s %10s %10s | %8s %10s %10s\n",
		"", "", "PC(%)", "PQ(%)", "||Bo||", "PC(%)", "PQ(%)", "||Bf||")
	fmt.Fprintf(&b, "%-8s | %30s | %30s\n", "", "baseline", "after block filtering")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-2s | %8.1f %10.2e %10.1e | %8.1f %10.2e %10.1e\n",
			r.Dataset, r.Variant, r.BasePC*100, r.BasePQ*100, float64(r.BaseCard),
			r.FiltPC*100, r.FiltPQ*100, float64(r.FiltCard))
	}
	return b.String()
}

// CompareRow is one method row of Tables 4, 5 and 7: a meta-blocking
// technique with its blocking quality, overhead and output cardinality.
type CompareRow struct {
	Method      string
	PC, PQ, F1  float64
	Overhead    time.Duration
	Comparisons int64
}

// RenderCompare formats CompareRows like Tables 4/5/7.
func RenderCompare(title string, rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n", title)
	fmt.Fprintf(&b, "%-18s %8s %9s %7s %10s %10s\n", "method", "PC(%)", "PQ(%)", "F1", "to", "||B||")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8.2f %9.4f %7.3f %10s %10.1e\n",
			r.Method, r.PC*100, r.PQ*100, r.F1, r.Overhead.Round(time.Millisecond), float64(r.Comparisons))
	}
	return b.String()
}

// buildBlocks constructs the cleaned block collection for a variant:
// Token Blocking alone ("T") or with LMI ("L"/LSH-accelerated "L*").
func buildBlocks(ds *model.Dataset, variant string, lshCfg *attr.LSHConfig) (*blocking.Collection, time.Duration) {
	start := time.Now()
	key := blocking.TokenKey
	if variant != "T" {
		cfg := attr.DefaultConfig()
		cfg.LSH = lshCfg
		profiles := attr.ExtractProfiles(ds, text.NewTokenizer())
		part := attr.LMI(profiles, ds.Kind, cfg)
		key = part.KeyFunc()
	}
	c := blocking.Build(ds, text.NewTokenizer(), key)
	c = blocking.CleanWorkflow(c, 0.5, 0.8)
	return c, time.Since(start)
}

// runCell runs one scheme x pruning cell over the prebuilt graph of a
// block collection. Tables 4/5/7 and Figure 8 build one CSR per
// collection and re-weigh it for every cell; the graph keeps its
// co-occurrence statistics throughout.
func runCell(g *graph.CSR, mcfg metablocking.Config) *metablocking.Result {
	res, err := metablocking.RunOnCSR(context.Background(), g, mcfg)
	if err != nil {
		// The background context never cancels and a resident graph has
		// no I/O to fail.
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// averageClassic runs a pruning over the five classic weighting schemes
// and averages the quality metrics (the paper lists scheme-averaged rows
// for wnp1/wnp2/cnp1/cnp2).
func averageClassic(g *graph.CSR, pruning metablocking.Pruning, truth *model.GroundTruth) CompareRow {
	var acc CompareRow
	for _, k := range weights.Classic() {
		res := runCell(g, metablocking.Config{
			Scheme:  weights.Scheme{Kind: k},
			Pruning: pruning,
		})
		q := metrics.EvaluatePairs(res.Pairs, truth)
		acc.PC += q.PC
		acc.PQ += q.PQ
		acc.F1 += q.F1
		acc.Overhead += res.Overhead()
		acc.Comparisons += q.Comparisons
	}
	n := float64(len(weights.Classic()))
	acc.PC /= n
	acc.PQ /= n
	acc.F1 /= n
	acc.Overhead /= time.Duration(n)
	acc.Comparisons /= int64(n)
	return acc
}

// Table4 regenerates one comparison table (Tables 4a-4d): traditional
// unsupervised meta-blocking (wnp1/wnp2/cnp1/cnp2, averaged over the
// five classic schemes, on both "T" and "L" blocks), the chi2h-weighted
// CNP adaptations, supervised meta-blocking, and BLAST.
func Table4(cfg Config, dataset string) ([]CompareRow, error) {
	ds, err := cfg.load(dataset)
	if err != nil {
		return nil, err
	}
	return compareAll(cfg, ds, nil)
}

// Table5 regenerates the dbp comparison, including the LSH-accelerated
// variants (the starred rows).
func Table5(cfg Config) ([]CompareRow, error) {
	ds, err := cfg.load("dbp")
	if err != nil {
		return nil, err
	}
	lsh := &attr.LSHConfig{Rows: 5, Bands: 30, Seed: cfg.Seed}
	return compareAll(cfg, ds, lsh)
}

// compareAll produces the shared method rows of Tables 4/5. When lshCfg
// is non-nil, "L*" and "Blast*" rows are appended.
func compareAll(cfg Config, ds *model.Dataset, lshCfg *attr.LSHConfig) ([]CompareRow, error) {
	tBlocks, tTime := buildBlocks(ds, "T", nil)
	lBlocks, lTime := buildBlocks(ds, "L", nil)
	tGraph := graph.BuildCSR(tBlocks)
	lGraph := graph.BuildCSR(lBlocks)

	var rows []CompareRow
	addAvg := func(method string, g *graph.CSR, pruning metablocking.Pruning, base time.Duration) {
		r := averageClassic(g, pruning, ds.Truth)
		r.Method = method
		r.Overhead += base
		rows = append(rows, r)
	}
	addOne := func(method string, g *graph.CSR, mcfg metablocking.Config, base time.Duration) {
		res := runCell(g, mcfg)
		q := metrics.EvaluatePairs(res.Pairs, ds.Truth)
		rows = append(rows, CompareRow{
			Method: method, PC: q.PC, PQ: q.PQ, F1: q.F1,
			Overhead: base + res.Overhead(), Comparisons: q.Comparisons,
		})
	}

	for _, p := range []struct {
		name    string
		pruning metablocking.Pruning
	}{
		{"wnp1", metablocking.WNP1},
		{"wnp2", metablocking.WNP2},
		{"cnp1", metablocking.CNP1},
		{"cnp2", metablocking.CNP2},
	} {
		addAvg(p.name+" T", tGraph, p.pruning, tTime)
		addAvg(p.name+" L", lGraph, p.pruning, lTime)
		if p.pruning == metablocking.CNP1 || p.pruning == metablocking.CNP2 {
			addOne(p.name+" Lchi2h", lGraph, metablocking.Config{
				Scheme: weights.Blast(), Pruning: p.pruning,
			}, lTime)
		}
	}

	// Supervised meta-blocking (WEP-style SVM classification, T blocks):
	// the baseline reads its features off the same CSR.
	supStart := time.Now()
	sup := supervised.Run(tGraph, ds.Truth, supervised.Config{
		TrainFraction: 0.10, NegativeRatio: 1, Seed: cfg.Seed,
	})
	q := metrics.EvaluatePairs(sup.Pairs, ds.Truth)
	rows = append(rows, CompareRow{
		Method: "sup. MB", PC: q.PC, PQ: q.PQ, F1: q.F1,
		Overhead: tTime + time.Since(supStart), Comparisons: q.Comparisons,
	})

	// BLAST.
	addOne("Blast", lGraph, metablocking.Config{
		Scheme: weights.Blast(), Pruning: metablocking.BlastWNP, C: 2, D: 2,
	}, lTime)

	if lshCfg != nil {
		lsBlocks, lsTime := buildBlocks(ds, "L*", lshCfg)
		lsGraph := graph.BuildCSR(lsBlocks)
		addAvg("wnp1 L*", lsGraph, metablocking.WNP1, lsTime)
		addAvg("cnp2 L*", lsGraph, metablocking.CNP2, lsTime)
		addOne("Blast*", lsGraph, metablocking.Config{
			Scheme: weights.Blast(), Pruning: metablocking.BlastWNP, C: 2, D: 2,
		}, lsTime)
	}
	return rows, nil
}

// Table7 regenerates the dirty-ER comparison (Tables 7a-7c): BLAST vs
// traditional WNP/CNP, all in combination with LMI, on one dirty
// benchmark.
func Table7(cfg Config, dataset string) ([]CompareRow, error) {
	ds, err := cfg.load(dataset)
	if err != nil {
		return nil, err
	}
	lBlocks, lTime := buildBlocks(ds, "L", nil)
	lGraph := graph.BuildCSR(lBlocks)

	var rows []CompareRow
	addOne := func(method string, mcfg metablocking.Config) {
		res := runCell(lGraph, mcfg)
		q := metrics.EvaluatePairs(res.Pairs, ds.Truth)
		rows = append(rows, CompareRow{
			Method: method, PC: q.PC, PQ: q.PQ, F1: q.F1,
			Overhead: lTime + res.Overhead(), Comparisons: q.Comparisons,
		})
	}
	addOne("Blast", metablocking.Config{Scheme: weights.Blast(), Pruning: metablocking.BlastWNP, C: 2, D: 2})
	r := averageClassic(lGraph, metablocking.WNP1, ds.Truth)
	r.Method, r.Overhead = "wnp1", r.Overhead+lTime
	rows = append(rows, r)
	r = averageClassic(lGraph, metablocking.WNP2, ds.Truth)
	r.Method, r.Overhead = "wnp2", r.Overhead+lTime
	rows = append(rows, r)
	r = averageClassic(lGraph, metablocking.CNP1, ds.Truth)
	r.Method, r.Overhead = "cnp1", r.Overhead+lTime
	rows = append(rows, r)
	r = averageClassic(lGraph, metablocking.CNP2, ds.Truth)
	r.Method, r.Overhead = "cnp2", r.Overhead+lTime
	rows = append(rows, r)
	return rows, nil
}

// Table6Row is one LSH configuration of Table 6: the LMI runtime at an
// estimated Jaccard threshold.
type Table6Row struct {
	Label     string
	Rows      int
	Bands     int
	Threshold float64
	Duration  time.Duration
	Clusters  int
}

// Table6 regenerates the LMI runtime table: exhaustive LMI ("-") versus
// LSH-approximated LMI at increasing thresholds, on the dbp attribute
// space. The paper's exhaustive row compares every attribute pair and
// is the slow one; here it counts shared tokens through a token-posting
// index, so it only falls behind LSH once the attribute space is large
// enough for the posting walk to outweigh MinHash signing — LSH stays
// the approximation for that regime, and the sweep shows its cost
// falling as the threshold rises.
func Table6(cfg Config) ([]Table6Row, error) {
	ds, err := cfg.load("dbp")
	if err != nil {
		return nil, err
	}
	profiles := attr.ExtractProfiles(ds, text.NewTokenizer())

	var out []Table6Row
	run := func(label string, lcfg *attr.LSHConfig, rows, bands int, th float64) {
		c := attr.DefaultConfig()
		c.LSH = lcfg
		start := time.Now()
		part := attr.LMI(profiles, ds.Kind, c)
		out = append(out, Table6Row{
			Label: label, Rows: rows, Bands: bands, Threshold: th,
			Duration: time.Since(start), Clusters: part.NumClusters(),
		})
	}
	run("-", nil, 0, 0, 0)
	// (rows, bands) chosen so thresholds track the paper's sweep
	// (.10 .22 .32 .41 .55 .64).
	for _, rb := range [][2]int{{2, 100}, {3, 90}, {4, 80}, {5, 60}, {6, 35}, {7, 25}} {
		r, b := rb[0], rb[1]
		run(fmt.Sprintf("LSH r=%d b=%d", r, b), &attr.LSHConfig{Rows: r, Bands: b, Seed: cfg.Seed}, r, b, lshThreshold(r, b))
	}
	return out, nil
}

// RenderTable6 formats the LMI runtimes like Table 6.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %12s %9s\n", "config", "threshold", "LMI time", "clusters")
	for _, r := range rows {
		th := "-"
		if r.Threshold > 0 {
			th = fmt.Sprintf("%.2f", r.Threshold)
		}
		fmt.Fprintf(&b, "%-14s %10s %12s %9d\n", r.Label, th, r.Duration.Round(time.Millisecond), r.Clusters)
	}
	return b.String()
}
