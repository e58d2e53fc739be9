// Bibliographic runs the paper's headline comparison on a DBLP-ACM-shaped
// workload (the ar1 benchmark): schema-agnostic Token Blocking, classic
// meta-blocking and BLAST, end-to-end through a Jaccard matcher — showing
// the two-orders-of-magnitude PQ gain at near-identical PC.
//
//	go run ./examples/bibliographic
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"blast"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/match"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/supervised"
	"blast/internal/text"
	"blast/internal/weights"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale (smoke-test guard)")
	flag.Parse()
	if err := run(*quick); err != nil {
		fmt.Fprintln(os.Stderr, "bibliographic:", err)
		os.Exit(1)
	}
}

func run(quick bool) error {
	scale := 0.25 // quarter-scale DBLP-ACM shape
	if quick {
		scale = 0.08
	}
	ds := datasets.AR1(scale, 7)
	fmt.Println("workload:", datasets.Describe(ds))
	fmt.Printf("naive comparisons: %d\n\n", ds.TotalComparisons())

	type row struct {
		name string
		opt  blast.Options
		// supervised replaces the row's Phase 3 by the supervised
		// meta-blocking baseline (an experiments-only comparator, not a
		// pipeline option) over the same Blocks artifact.
		supervised bool
	}
	rows := []row{
		{"token blocking only", func() blast.Options {
			o := blast.DefaultOptions()
			o.Induction = blast.NoInduction
			o.Pruning = metablocking.CEP
			o.K = 1 << 30 // effectively "keep the whole graph"
			o.Scheme = weights.Scheme{Kind: weights.CBS}
			return o
		}(), false},
		{"traditional wnp2 (JS)", func() blast.Options {
			o := blast.DefaultOptions()
			o.Induction = blast.NoInduction
			o.Scheme = weights.Scheme{Kind: weights.JS}
			o.Pruning = metablocking.WNP2
			return o
		}(), false},
		{"supervised MB (SVM)", blast.DefaultOptions(), true},
		{"BLAST", blast.DefaultOptions(), false},
	}

	// The staged API shares phase artifacts across comparison rows: the
	// two schema-agnostic rows reuse one Token Blocking Blocks artifact,
	// the two LMI rows reuse one induced schema and its blocks. Only
	// Phase 3 differs per row.
	ctx := context.Background()
	blocksCache := map[blast.Induction]*blast.Blocks{}
	var res *blast.Result

	fmt.Printf("%-22s %8s %9s %8s %12s %10s\n", "method", "PC(%)", "PQ(%)", "F1", "comparisons", "overhead")
	for _, r := range rows {
		p, err := blast.NewPipeline(r.opt)
		if err != nil {
			return err
		}
		blocks := blocksCache[r.opt.Induction]
		if blocks == nil {
			schema, err := p.InduceSchema(ctx, ds)
			if err != nil {
				return err
			}
			if blocks, err = p.Block(ctx, ds, schema); err != nil {
				return err
			}
			blocksCache[r.opt.Induction] = blocks
		}
		if r.supervised {
			// The baseline reads its per-edge features off the CSR rows of
			// the blocking graph: SVM trained on 10% of the matches.
			t0 := time.Now()
			sup := supervised.Run(graph.BuildCSR(blocks.Collection), ds.Truth, supervised.Config{
				TrainFraction: 0.1, NegativeRatio: 1, Seed: 1,
			})
			overhead := blocks.Schema.Duration + blocks.Duration + time.Since(t0)
			q := metrics.EvaluatePairs(sup.Pairs, ds.Truth)
			fmt.Printf("%-22s %8.2f %9.4f %8.3f %12d %10s\n",
				r.name, q.PC*100, q.PQ*100, q.F1, len(sup.Pairs), overhead.Round(time.Millisecond))
			continue
		}
		rowRes, err := p.MetaBlock(ctx, blocks)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %8.2f %9.4f %8.3f %12d %10s\n",
			r.name, rowRes.Quality.PC*100, rowRes.Quality.PQ*100, rowRes.Quality.F1,
			len(rowRes.Pairs), rowRes.Overhead().Round(time.Millisecond))
		if r.name == "BLAST" {
			res = rowRes // reused below: no extra full run needed
		}
	}
	// Close the loop: resolve BLAST's comparisons with a Jaccard matcher.
	matcher := match.NewJaccard(ds, text.NewTokenizer())
	t0 := time.Now()
	matched := match.Resolve(matcher, res.Pairs, 0.35)
	precision, recall, f1 := match.Evaluate(matched.Matches, ds.Truth)
	fmt.Printf("\nend-to-end ER over BLAST blocks: %d comparisons in %s\n",
		matched.Compared, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("matcher precision=%.3f recall=%.3f F1=%.3f\n", precision, recall, f1)
	return nil
}
