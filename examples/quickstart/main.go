// Quickstart walks through the paper's running example (Figures 1-3):
// four person profiles from heterogeneous sources, Token Blocking, the
// blocking graph, loose schema extraction, and BLAST's weighting and
// pruning — printing each intermediate so the output can be read next to
// the paper.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"blast"
	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/weights"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	ds := datasets.PaperExample()

	fmt.Println("=== Entity profiles (Figure 1a) ===")
	for i := 0; i < ds.NumProfiles(); i++ {
		fmt.Printf("  %s\n", ds.Profile(i))
	}

	// --- Figure 1b: Token Blocking ---------------------------------
	blocks := blocking.TokenBlocking(ds)
	fmt.Printf("\n=== Token Blocking (Figure 1b): %d blocks ===\n", blocks.Len())
	printBlocks(blocks)

	// --- Figure 1c: the blocking graph with CBS weights ------------
	g := graph.BuildCSR(blocks)
	weights.Scheme{Kind: weights.CBS}.ApplyCSR(g)
	fmt.Println("\n=== Blocking graph, co-occurrence weights (Figure 1c) ===")
	g.Canonical(func(u, v int32, p int64) {
		fmt.Printf("  p%d - p%d  weight %.0f\n", u+1, v+1, g.Weights[p])
	})

	// --- Figure 1d: traditional WNP keeps two superfluous edges ----
	ctx := context.Background()
	wnp, err := metablocking.RunOnCSR(ctx, g, metablocking.Config{
		Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: metablocking.WNP1,
	})
	if err != nil {
		return err
	}
	fmt.Println("\n=== Traditional WNP pruning (Figure 1d) ===")
	for _, p := range wnp.Pairs {
		marker := "superfluous!"
		if ds.Truth.Contains(int(p.U), int(p.V)) {
			marker = "true match"
		}
		fmt.Printf("  retained %s-%s  (%s)\n", ds.Profile(int(p.U)).ID, ds.Profile(int(p.V)).ID, marker)
	}

	// --- Figures 2-3: the full BLAST pipeline, phase by phase ------
	// The staged API makes each paper phase a call returning a reusable
	// artifact: the schema of Figure 2, the disambiguated blocks of
	// Figure 2a, the pruned result of Figure 3c.
	opt := blast.DefaultOptions()
	opt.PurgeRatio = 1.0  // the 4-profile example needs no purging
	opt.FilterRatio = 1.0 // ... nor filtering
	pipe, err := blast.NewPipeline(opt)
	if err != nil {
		return err
	}
	schema, err := pipe.InduceSchema(ctx, ds)
	if err != nil {
		return err
	}
	disamb, err := pipe.Block(ctx, ds, schema)
	if err != nil {
		return err
	}
	res, err := pipe.MetaBlock(ctx, disamb)
	if err != nil {
		return err
	}

	fmt.Println("\n=== Loose schema information (Figure 2/3, via real LMI) ===")
	for _, c := range res.Partitioning.Clusters {
		if len(c.Members) == 0 {
			continue
		}
		var names []string
		for _, m := range c.Members {
			names = append(names, m.Name)
		}
		sort.Strings(names)
		kind := fmt.Sprintf("cluster %d", c.ID)
		if c.ID == 0 {
			kind = "glue cluster"
		}
		fmt.Printf("  %-10s H̄=%.3f  %v\n", kind, c.Entropy, names)
	}

	fmt.Printf("\n=== Disambiguated blocks (Figure 2a): %d blocks ===\n", res.Blocks.Len())
	printBlocks(res.Blocks)

	fmt.Println("\n=== BLAST result (Figure 3c) ===")
	for _, p := range res.Pairs {
		fmt.Printf("  retained %s-%s\n", ds.Profile(int(p.U)).ID, ds.Profile(int(p.V)).ID)
	}
	fmt.Printf("\nPC=%.0f%% PQ=%.0f%% — both matches kept, every superfluous comparison pruned.\n",
		res.Quality.PC*100, res.Quality.PQ*100)
	return nil
}

func printBlocks(c *blocking.Collection) {
	for i := 0; i < c.Len(); i++ {
		b := c.Block(i)
		var members []string
		for _, p := range b.P1 {
			members = append(members, fmt.Sprintf("p%d", p+1))
		}
		fmt.Printf("  %-12q -> %v\n", b.Key, members)
	}
}
