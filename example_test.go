package blast_test

import (
	"context"
	"fmt"

	"blast"
	"blast/internal/datasets"
	"blast/internal/model"
)

// ExamplePipeline_Run runs all three phases in one call on the paper's
// Figure 1 example: four heterogeneous person profiles, two true
// matches.
func ExamplePipeline_Run() {
	ds := datasets.PaperExample()
	opt := blast.DefaultOptions()
	opt.PurgeRatio = 1.0  // tiny example: skip purging
	opt.FilterRatio = 1.0 // ... and filtering
	p, err := blast.NewPipeline(opt)
	if err != nil {
		panic(err)
	}
	res, err := p.Run(context.Background(), ds)
	if err != nil {
		panic(err)
	}
	for _, pair := range res.Pairs {
		fmt.Printf("%s matches %s\n", ds.Profile(int(pair.U)).ID, ds.Profile(int(pair.V)).ID)
	}
	fmt.Printf("PC=%.0f%% PQ=%.0f%%\n", res.Quality.PC*100, res.Quality.PQ*100)
	// Output:
	// p1 matches p3
	// p2 matches p4
	// PC=100% PQ=100%
}

// ExamplePipeline_Run_cleanClean shows clean-clean ER over two
// hand-built collections with different schemas and no alignment. A nil
// Truth is allowed: no quality is computed then.
func ExamplePipeline_Run_cleanClean() {
	a := model.NewCollection("A")
	p1 := model.Profile{ID: "a1"}
	p1.Add("name", "Ellen Smith")
	p1.Add("city", "New York")
	a.Append(p1)
	p2 := model.Profile{ID: "a2"}
	p2.Add("name", "John Abram")
	p2.Add("city", "Boston")
	a.Append(p2)

	b := model.NewCollection("B")
	q1 := model.Profile{ID: "b1"}
	q1.Add("full name", "Ellen Smith")
	q1.Add("location", "New York")
	b.Append(q1)
	q2 := model.Profile{ID: "b2"}
	q2.Add("full name", "Mary Jones")
	q2.Add("location", "Chicago")
	b.Append(q2)

	opt := blast.DefaultOptions()
	opt.FilterRatio = 1.0
	p, err := blast.NewPipeline(opt)
	if err != nil {
		panic(err)
	}
	ds := &model.Dataset{Name: "catalogs", Kind: model.CleanClean, E1: a, E2: b}
	res, err := p.Run(context.Background(), ds)
	if err != nil {
		panic(err)
	}
	for _, pair := range res.Pairs {
		fmt.Printf("compare a%d with b%d\n", pair.U+1, pair.V-1)
	}
	// Output:
	// compare a1 with b1
}

// ExampleIndex_Candidates serves per-profile candidate queries from a
// frozen Index: the online counterpart of the batch pipeline, answering
// "who should this profile be compared against?" in O(degree) per query.
func ExampleIndex_Candidates() {
	ds := datasets.PaperExample()
	opt := blast.DefaultOptions()
	opt.PurgeRatio = 1.0  // tiny example: skip purging
	opt.FilterRatio = 1.0 // ... and filtering
	p, err := blast.NewPipeline(opt)
	if err != nil {
		panic(err)
	}
	ix, err := p.BuildIndex(context.Background(), ds)
	if err != nil {
		panic(err)
	}
	for i := 0; i < ix.NumProfiles(); i++ {
		for _, c := range ix.Candidates(i) {
			fmt.Printf("%s -> %s\n", ds.Profile(i).ID, ds.Profile(int(c.ID)).ID)
		}
	}
	// Output:
	// p1 -> p3
	// p2 -> p4
	// p3 -> p1
	// p4 -> p2
}

// ExamplePipeline_MetaBlock sweeps BLAST's c threshold over one shared
// Blocks artifact: Phases 1-2 run once, every configuration re-runs
// only the meta-blocking phase.
func ExamplePipeline_MetaBlock() {
	ds := datasets.PaperExample()
	opt := blast.DefaultOptions()
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	base, err := blast.NewPipeline(opt)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	schema, err := base.InduceSchema(ctx, ds)
	if err != nil {
		panic(err)
	}
	blocks, err := base.Block(ctx, ds, schema)
	if err != nil {
		panic(err)
	}
	for _, c := range []float64{0.5, 2} {
		sweep := opt
		sweep.C = c
		p, err := blast.NewPipeline(sweep)
		if err != nil {
			panic(err)
		}
		res, err := p.MetaBlock(ctx, blocks)
		if err != nil {
			panic(err)
		}
		fmt.Printf("c=%v retains %d comparisons\n", c, len(res.Pairs))
	}
	// Output:
	// c=0.5 retains 0 comparisons
	// c=2 retains 2 comparisons
}

// ExamplePipeline_Run_dirty deduplicates a single collection.
func ExamplePipeline_Run_dirty() {
	e := model.NewCollection("contacts")
	for i, v := range []string{
		"Ellen Smith 10 Main street",
		"Smith, Ellen — Main st. 10",
		"Giovanni Simonini via Vivarelli 10",
	} {
		p := model.Profile{ID: fmt.Sprintf("c%d", i+1)}
		p.Add("contact", v)
		e.Append(p)
	}
	opt := blast.DefaultOptions()
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	p, err := blast.NewPipeline(opt)
	if err != nil {
		panic(err)
	}
	res, err := p.Run(context.Background(), &model.Dataset{Name: "contacts", Kind: model.Dirty, E1: e})
	if err != nil {
		panic(err)
	}
	for _, pair := range res.Pairs {
		fmt.Printf("compare c%d with c%d\n", pair.U+1, pair.V+1)
	}
	// Output:
	// compare c1 with c2
}
