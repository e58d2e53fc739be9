package blast_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
// Quality metrics are attached via b.ReportMetric so the -bench output
// carries the reproduced numbers next to the timings:
//
//	go test -bench=. -benchmem
//
// Scales are chosen so the full bench suite completes in minutes; use
// cmd/blastbench to run any experiment at larger scales.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"blast"
	"blast/internal/attr"
	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/experiments"
	"blast/internal/graph"
	"blast/internal/lsh"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/stats"
	"blast/internal/text"
	"blast/internal/wal"
	"blast/internal/weights"
)

// benchCfg is the shared experiment configuration of the bench suite.
func benchCfg() experiments.Config { return experiments.Config{Scale: 0.5, Seed: 42} }

func BenchmarkTable2_DatasetGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable3_Blocking(b *testing.B) {
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3(benchCfg(), []string{"ar1", "prd"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Dataset == "ar1" && r.Variant == "L" {
			b.ReportMetric(r.FiltPC*100, "PC%")
			b.ReportMetric(r.FiltPQ*100, "PQ%")
		}
	}
}

// benchTable4 runs the comparison table for one dataset and reports
// BLAST's quality metrics.
func benchTable4(b *testing.B, dataset string) {
	b.Helper()
	var rows []experiments.CompareRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table4(benchCfg(), dataset)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Method == "Blast" {
			b.ReportMetric(r.PC*100, "PC%")
			b.ReportMetric(r.PQ*100, "PQ%")
			b.ReportMetric(r.F1, "F1")
		}
	}
}

func BenchmarkTable4_AR1(b *testing.B) { benchTable4(b, "ar1") }
func BenchmarkTable4_AR2(b *testing.B) { benchTable4(b, "ar2") }
func BenchmarkTable4_PRD(b *testing.B) { benchTable4(b, "prd") }
func BenchmarkTable4_MOV(b *testing.B) { benchTable4(b, "mov") }

func BenchmarkTable5_DBP(b *testing.B) {
	cfg := experiments.Config{Scale: 0.25, Seed: 42} // dbp is the heavy benchmark
	var rows []experiments.CompareRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Method == "Blast*" {
			b.ReportMetric(r.PC*100, "PC%")
			b.ReportMetric(r.PQ*100, "PQ%")
		}
	}
}

func BenchmarkTable6_LSHLMI(b *testing.B) {
	cfg := experiments.Config{Scale: 0.5, Seed: 42}
	var rows []experiments.Table6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Time of the mid-sweep LSH configuration relative to exhaustive
	// LMI (above 1: the posting-row kernel beats signing at this scale).
	if len(rows) > 3 && rows[0].Duration > 0 {
		b.ReportMetric(float64(rows[3].Duration)/float64(rows[0].Duration), "lsh/exhaustive")
	}
}

func benchTable7(b *testing.B, dataset string) {
	b.Helper()
	var rows []experiments.CompareRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table7(benchCfg(), dataset)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Method == "Blast" {
			b.ReportMetric(r.PC*100, "PC%")
			b.ReportMetric(r.PQ*100, "PQ%")
		}
	}
}

func BenchmarkTable7_Census(b *testing.B) { benchTable7(b, "census") }
func BenchmarkTable7_Cora(b *testing.B)   { benchTable7(b, "cora") }
func BenchmarkTable7_CDDB(b *testing.B)   { benchTable7(b, "cddb") }

func BenchmarkFigure5_SCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curve, th := experiments.Figure5()
		if len(curve) == 0 || th <= 0 {
			b.Fatal("bad curve")
		}
	}
}

func BenchmarkFigure8_Ablation(b *testing.B) {
	var rows []experiments.Figure8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure8(benchCfg(), []string{"ar1"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Variant == "bch" {
			b.ReportMetric(r.PQ*100, "bchPQ%")
		}
		if r.Variant == "chi" {
			b.ReportMetric(r.PQ*100, "chiPQ%")
		}
	}
}

func BenchmarkFigure9_LMIvsAC(b *testing.B) {
	var rows []experiments.Figure9Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure9(benchCfg(), []string{"ar1", "prd"})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].DeltaPQ*100, "dPQ%")
	}
}

func BenchmarkFigure10_LSHSweep(b *testing.B) {
	cfg := experiments.Config{Scale: 0.25, Seed: 42}
	var rows []experiments.Figure10Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].PC*100, "lowThPC%")
		b.ReportMetric(rows[len(rows)-1].PC*100, "highThPC%")
	}
}

func BenchmarkEndToEnd_Savings(b *testing.B) {
	var res *experiments.EndToEndResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.EndToEnd(benchCfg(), "ar1", 0.3)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.BlastComparisons > 0 {
		b.ReportMetric(float64(res.OriginalComparisons)/float64(res.BlastComparisons), "reduction")
	}
}

// --- Component microbenches -------------------------------------------

func BenchmarkComponent_TokenBlocking(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := blocking.TokenBlocking(ds)
		if c.Len() == 0 {
			b.Fatal("no blocks")
		}
	}
}

func BenchmarkComponent_LMI(b *testing.B) {
	ds := datasets.DBP(0.05, 42)
	profiles := attr.ExtractProfiles(ds, text.NewTokenizer())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := attr.LMI(profiles, ds.Kind, attr.DefaultConfig())
		if part.NumClusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}

func BenchmarkComponent_LMIWithLSH(b *testing.B) {
	ds := datasets.DBP(0.05, 42)
	profiles := attr.ExtractProfiles(ds, text.NewTokenizer())
	cfg := attr.DefaultConfig()
	cfg.LSH = &attr.LSHConfig{Rows: 5, Bands: 30, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := attr.LMI(profiles, ds.Kind, cfg)
		if part.NumClusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}

func BenchmarkComponent_GraphBuild(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	blocks := blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.BuildCSR(blocks)
		if g.NumEdges() == 0 {
			b.Fatal("no edges")
		}
	}
}

func BenchmarkComponent_ChiSquaredWeighting(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	g := graph.BuildCSR(blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weights.Blast().ApplyCSR(g)
	}
}

func BenchmarkComponent_MinHashSign(b *testing.B) {
	signer := lsh.NewSigner(150, 42)
	tokens := make([]uint64, 200)
	for i := range tokens {
		tokens[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := signer.SignHashes(tokens)
		if len(sig) != 150 {
			b.Fatal("bad signature")
		}
	}
}

// --- Ablation benches ---------------------------------------------------

// BenchmarkAblation_ThresholdC sweeps BLAST's local threshold divisor c
// (Section 3.3.2: higher c -> higher PC, lower PQ).
func BenchmarkAblation_ThresholdC(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	for _, c := range []float64{1, 2, 4} {
		b.Run(fmt.Sprintf("c=%g", c), func(b *testing.B) {
			var q metrics.Quality
			for i := 0; i < b.N; i++ {
				opt := blast.DefaultOptions()
				opt.C = c
				res, err := blast.Run(ds, opt)
				if err != nil {
					b.Fatal(err)
				}
				q = res.Quality
			}
			b.ReportMetric(q.PC*100, "PC%")
			b.ReportMetric(q.PQ*100, "PQ%")
		})
	}
}

// BenchmarkAblation_GlueCluster measures the effect of the glue cluster
// (Section 4.4): disabling it drops unclustered attributes entirely.
func BenchmarkAblation_GlueCluster(b *testing.B) {
	ds := datasets.MOV(0.01, 42)
	for _, glue := range []bool{true, false} {
		b.Run(fmt.Sprintf("glue=%v", glue), func(b *testing.B) {
			var q metrics.Quality
			for i := 0; i < b.N; i++ {
				opt := blast.DefaultOptions()
				opt.Glue = glue
				res, err := blast.Run(ds, opt)
				if err != nil {
					b.Fatal(err)
				}
				q = res.Quality
			}
			b.ReportMetric(q.PC*100, "PC%")
		})
	}
}

// BenchmarkAblation_FilterRatio sweeps the Block Filtering ratio (the
// paper fixes 0.8 as the PC-preserving tradeoff).
func BenchmarkAblation_FilterRatio(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	for _, ratio := range []float64{0.5, 0.8, 1.0} {
		b.Run(fmt.Sprintf("r=%g", ratio), func(b *testing.B) {
			var q metrics.Quality
			for i := 0; i < b.N; i++ {
				opt := blast.DefaultOptions()
				opt.FilterRatio = ratio
				res, err := blast.Run(ds, opt)
				if err != nil {
					b.Fatal(err)
				}
				q = res.Quality
			}
			b.ReportMetric(q.PC*100, "PC%")
			b.ReportMetric(q.PQ*100, "PQ%")
		})
	}
}

// BenchmarkAblation_WeightingScheme compares the weighting families under
// BLAST pruning (the Figure 8 wsh/chi/bch argument as a bench).
func BenchmarkAblation_WeightingScheme(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	opt := blast.DefaultOptions()
	res, err := blast.Run(ds, opt)
	if err != nil {
		b.Fatal(err)
	}
	blocks := res.Blocks
	for _, sc := range []struct {
		name string
		s    weights.Scheme
	}{
		{"JS", weights.Scheme{Kind: weights.JS}}, {"CBS", weights.Scheme{Kind: weights.CBS}},
		{"chi2", weights.Scheme{Kind: weights.ChiSquared}}, {"chi2*h", weights.Blast()},
	} {
		b.Run(sc.name, func(b *testing.B) {
			var q metrics.Quality
			for i := 0; i < b.N; i++ {
				mb := metablocking.Run(blocks, metablocking.Config{
					Scheme: sc.s, Pruning: metablocking.BlastWNP, C: 2, D: 2,
				})
				q = metrics.EvaluatePairs(mb.Pairs, ds.Truth)
			}
			b.ReportMetric(q.PQ*100, "PQ%")
		})
	}
}

// BenchmarkEngine_MetaBlocking runs Phase 3 end to end (graph +
// weighting + pruning) on one cleaned block collection, twice: through
// the test-only edge-list reference the engine is held to (global pair
// map, one Edge per comparison, sort-based pruning) and through the
// engine. Run with -benchmem: the gap in time and in B/op is why the
// reference is a reference.
func BenchmarkEngine_MetaBlocking(b *testing.B) {
	ds := datasets.AR1(0.4, 42)
	blocks := blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8)
	cfg := metablocking.DefaultConfig()
	cfg.Workers = 1
	for _, run := range []struct {
		name  string
		pairs func() int
	}{
		{"reference", func() int {
			g := edgelist.Build(blocks)
			g.Weigh(cfg.Scheme.Weigher(g.NumEdges(), g.TotalBlocks).Weight)
			return len(g.Pairs(edgelist.BlastWNP(g, cfg.C, cfg.D)))
		}},
		{"engine", func() int { return len(metablocking.Run(blocks, cfg).Pairs) }},
	} {
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			for i := 0; i < b.N; i++ {
				pairs = run.pairs()
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkEngine_CSRBuild isolates graph construction: the reference's
// edge-map accumulation vs the node-centric kernel, serial, parallel and
// as one of two owners' rows. Run with -benchmem. The dense collection
// (a token-blocked corpus, mean degree in the hundreds) shows what the
// exact-size in-place fill allocates; the sparse one (N five orders of
// magnitude above the mean degree, working set beyond the caches)
// guards the O(degree) emission — a builder that scanned the whole
// neighbor bitmap per node would show here and nowhere else — and is
// where the degree pass's second walk over the blocks costs the most:
// expect the serial build near the edge-list's time, the parallel one
// below it.
func BenchmarkEngine_CSRBuild(b *testing.B) {
	dense := blocking.CleanWorkflow(blocking.TokenBlocking(datasets.AR1(0.4, 42)), 0.5, 0.8)
	rng := stats.NewRNG(42)
	var pairs []blocking.Block
	for i := 0; i < 300_000; i++ {
		u, v := int32(rng.Intn(400_000)), int32(rng.Intn(400_000))
		if u != v {
			pairs = append(pairs, blocking.Block{P1: []int32{u, v}, Entropy: 1})
		}
	}
	sparse := blocking.FromBlocks(model.Dirty, 400_000, 0, pairs)
	ctx := context.Background()
	for _, shape := range []struct {
		name   string
		blocks *blocking.Collection
	}{{"dense", dense}, {"sparse", sparse}} {
		builders := []struct {
			name  string
			edges func() int
		}{
			{"edge-list", func() int { return edgelist.Build(shape.blocks).NumEdges() }},
			{"node-centric", func() int { return graph.BuildCSR(shape.blocks).NumEdges() }},
			{"node-centric-parallel", func() int { return parallelCSR(b, shape.blocks, 4).NumEdges() }},
			{"owned-half", func() int {
				g, err := graph.BuildOwnedCSR(ctx, shape.blocks, func(n int32) bool { return n%2 == 0 }, 1)
				if err != nil {
					b.Fatal(err)
				}
				return g.NumEdges()
			}},
		}
		for _, builder := range builders {
			b.Run(shape.name+"/"+builder.name, func(b *testing.B) {
				b.ReportAllocs()
				edges := 0
				for i := 0; i < b.N; i++ {
					if edges = builder.edges(); edges == 0 {
						b.Fatal("no edges")
					}
				}
				b.ReportMetric(float64(edges), "edges")
				b.ReportMetric(float64(shape.blocks.NumProfiles), "nodes")
			})
		}
	}
}

// streamBlocks runs the default pipeline's schema induction and
// blocking over a streamed dirty corpus of n profiles: the shape of
// bench/e2e's sweep workloads (5000 is a quarter of their size, mean
// degree in the hundreds).
func streamBlocks(b *testing.B, n int) *blocking.Collection {
	b.Helper()
	ctx := context.Background()
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ds := blast.StreamDataset(n, 1)
	schema, err := p.InduceSchema(ctx, ds)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, schema)
	if err != nil {
		b.Fatal(err)
	}
	return blocks.Collection
}

// BenchmarkEngine_ApplyCSR times the weighting kernel alone over one
// resident CSR: CBS (the weight is a copy of a statistic, so this is
// the kernel's own cost per entry) and the paper's chi2*h, serial and
// with one worker per CPU.
func BenchmarkEngine_ApplyCSR(b *testing.B) {
	ctx := context.Background()
	csr := parallelCSR(b, streamBlocks(b, 5000), 0)
	for _, sc := range []struct {
		name string
		s    weights.Scheme
	}{{"CBS", weights.Scheme{Kind: weights.CBS}}, {"chi2*h", weights.Blast()}} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := sc.s.ApplyCSRCtx(ctx, csr, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(csr.NumEdges()), "edges")
			})
		}
	}
}

// BenchmarkEngine_BuildWeighted is the first half of a cold run: the
// fill pass weighs each entry as it emits it and makes only Neighbors +
// Weights (what RunCtx, IndexBlocks and a partitioned shard's export
// take). Run with -benchmem: B/op is about 12 bytes an entry plus the
// per-profile arrays.
func BenchmarkEngine_BuildWeighted(b *testing.B) {
	ctx := context.Background()
	blocks := streamBlocks(b, 5000)
	cfg := metablocking.DefaultConfig()
	b.ReportAllocs()
	var edges int
	for i := 0; i < b.N; i++ {
		g, _, err := metablocking.BuildWeighted(ctx, blocks, cfg, prune.Alone, nil)
		if err != nil {
			b.Fatal(err)
		}
		edges = g.NumEdges()
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkServer_StreamPublish streams 1024 profiles in batches of 16
// into a fresh in-memory two-shard server (SwapOps at its default 256)
// and quiesces it: the write path of bench/e2e's serve-stream without
// the journal. An op is one stream; swaps/op is the publications the
// writer made for it — admission outruns a freeze, so group publication
// covers the backlog with fewer than the four a per-window policy makes
// (the exact count depends on timing, by design) — and profiles/s the
// rate at which streamed profiles became visible.
func BenchmarkServer_StreamPublish(b *testing.B) {
	ctx := context.Background()
	const base, streamed, batch = 5000, 1024, 16
	st := datasets.NewStream(base+streamed, 1)
	e := model.NewCollection("stream")
	for i := 0; i < base; i++ {
		e.Append(st.Profile(i))
	}
	ds := &model.Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	stream := st.Profiles(base, base+streamed)
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	schema, err := p.InduceSchema(ctx, ds)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, schema)
	if err != nil {
		b.Fatal(err)
	}
	var swaps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := p.ServeBlocks(ctx, blocks, blast.ServerOptions{Shards: 2, Topology: blast.TopologyPartitioned})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for off := 0; off < len(stream); off += batch {
			if _, err := srv.InsertAll(ctx, stream[off:off+batch]); err != nil {
				b.Fatal(err)
			}
		}
		if err := srv.Quiesce(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := srv.NumProfiles(); got != base+streamed {
			b.Fatalf("quiesced server serves %d profiles, want %d", got, base+streamed)
		}
		swaps += srv.Stats()[0].Swaps
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(swaps)/float64(b.N), "swaps/op")
	b.ReportMetric(float64(streamed)*float64(b.N)/b.Elapsed().Seconds(), "profiles/s")
}

// BenchmarkServer_ConcurrentInsert runs 1, 2 and 8 in-process writers
// against a durable two-shard server fsyncing every log record
// (SyncEvery 1). An op is one burst against a fresh server, built
// outside the timer as BenchmarkServer_StreamPublish builds its own:
// every writer makes 32 single-profile InsertAll calls, then the op
// ends with Quiesce, so every op starts from the same collection and
// ns/op is comparable across -benchtime. records/profile is the
// write-ahead-log records — one fsync each — the server wrote per
// admitted profile. Group commit makes it fall as writers rise: calls
// that queue behind a commit share the next record. The count depends
// on timing, not on a fixed window. A call refused with ErrOverloaded
// backs off for a millisecond and retries, as a client answered 429
// would, and rejected/op counts the refusals.
func BenchmarkServer_ConcurrentInsert(b *testing.B) {
	ctx := context.Background()
	const base, calls = 1000, 32
	st := datasets.NewStream(base+8*calls, 1)
	e := model.NewCollection("stream")
	for i := 0; i < base; i++ {
		e.Append(st.Profile(i))
	}
	ds := &model.Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	stream := st.Profiles(base, base+8*calls)
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	schema, err := p.InduceSchema(ctx, ds)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			var records, rejected int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				srv, err := p.ServeBlocks(ctx, blocks, blast.ServerOptions{Shards: 2, Dir: dir, SyncEvery: 1, SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for c := 0; c < calls; c++ {
							_, err := srv.InsertAll(ctx, stream[w*calls+c:w*calls+c+1])
							for errors.Is(err, blast.ErrOverloaded) {
								time.Sleep(time.Millisecond)
								_, err = srv.InsertAll(ctx, stream[w*calls+c:w*calls+c+1])
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				if err := srv.Quiesce(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rejected += srv.WriteStats().Rejected
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				raw, err := os.ReadFile(filepath.Join(dir, "wal", "batches.wal"))
				if err != nil {
					b.Fatal(err)
				}
				recs, _, err := wal.Scan(raw)
				if err != nil {
					b.Fatal(err)
				}
				records += int64(len(recs))
				b.StartTimer()
			}
			b.ReportMetric(float64(records)/float64(b.N*writers*calls), "records/profile")
			b.ReportMetric(float64(rejected)/float64(b.N), "rejected/op")
		})
	}
}

// BenchmarkEngine_SpilledSweep runs one Phase-3 sweep — chi2*h, then
// BlastWNP and CEP — over the same blocks resident and spilled at a
// budget far below the adjacency. Run with -benchmem: the spilled row
// reports its time over the resident row's, the segment frames a sweep
// loads (one per page and stream a pass reads, see pages) and, in B/op,
// that a paged pass allocates its workers' page buffers — O(workers x
// page) — and nothing per entry.
func BenchmarkEngine_SpilledSweep(b *testing.B) {
	ctx := context.Background()
	blocks := streamBlocks(b, 5000)
	resident := parallelCSR(b, blocks, 0)
	spilled, err := graph.BuildCSRSpillCtx(ctx, blocks, graph.SpillOptions{Dir: b.TempDir(), MemoryBudget: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer spilled.Close()
	if !spilled.Spilled() {
		b.Fatal("the adjacency fit the budget")
	}
	sweep := func(b *testing.B, g *graph.CSR) (pairs int) {
		if err := weights.Blast().ApplyCSRCtx(ctx, g, 0); err != nil {
			b.Fatal(err)
		}
		for _, pruning := range []metablocking.Pruning{metablocking.BlastWNP, metablocking.CEP} {
			got, err := metablocking.PruneCSR(ctx, g, metablocking.Config{Scheme: weights.Blast(), Pruning: pruning, C: 2, D: 2})
			if err != nil {
				b.Fatal(err)
			}
			pairs += len(got)
		}
		return pairs
	}
	var residentNs float64
	b.Run("resident", func(b *testing.B) {
		b.ReportAllocs()
		pairs := 0
		for i := 0; i < b.N; i++ {
			pairs = sweep(b, resident)
		}
		residentNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(pairs), "pairs")
	})
	b.Run("spilled", func(b *testing.B) {
		b.ReportAllocs()
		pairs, loads := 0, spilled.PageLoads()
		for i := 0; i < b.N; i++ {
			pairs = sweep(b, spilled)
		}
		b.ReportMetric(float64(pairs), "pairs")
		b.ReportMetric(float64(spilled.PageLoads()-loads)/float64(b.N), "frames/op")
		b.ReportMetric(float64(spilled.NumEntries())/float64(1<<16), "pages")
		if residentNs > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/residentNs, "paged/resident")
		}
	})
}

// BenchmarkCNPStream times CNP's selection-cut kernel alone — the cut
// pass of prune.CNP plus the canonical retention pass — over one resident,
// weighted CSR of a streamed dirty corpus (the shape of bench/e2e's
// sweep-dirty, a quarter of its size: mean degree in the hundreds
// against a budget of tens). Run with -benchmem: scratch is O(k) per
// worker plus two per-node vectors, never per-entry.
func BenchmarkCNPStream(b *testing.B) {
	ctx := context.Background()
	csr := parallelCSR(b, streamBlocks(b, 5000), 0)
	weights.Blast().ApplyCSR(csr)
	csr.ReleaseStats()
	for _, mode := range []prune.Mode{prune.Redefined, prune.Reciprocal} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("%v/workers=%d", mode, workers), func(b *testing.B) {
				b.ReportAllocs()
				var pairs int
				for i := 0; i < b.N; i++ {
					d, err := prune.CNP(ctx, csr, 0, mode, workers, prune.Alone)
					if err != nil {
						b.Fatal(err)
					}
					kept, err := prune.CollectPairs(ctx, csr, workers, d.Keep)
					if err != nil {
						b.Fatal(err)
					}
					pairs = len(kept)
				}
				b.ReportMetric(float64(csr.NumEdges()), "edges")
				b.ReportMetric(float64(pairs), "pairs")
			})
		}
	}
}

// BenchmarkRestructuredKey compares the restructured-block key
// generation before/after the strconv rewrite: fmt.Sprintf("mb-%08d")
// boxes its argument and runs the formatter state machine per pair,
// the strconv-based append allocates only the final string.
func BenchmarkRestructuredKey(b *testing.B) {
	b.Run("sprintf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k := fmt.Sprintf("mb-%08d", i); len(k) < 11 {
				b.Fatal("bad key")
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k := blast.MBKeyForBench(i); len(k) < 11 {
				b.Fatal("bad key")
			}
		}
	})
}

// BenchmarkRestructuredBlocks measures the full block restructuring of a
// real result, the loop the strconv key rewrite targets.
func BenchmarkRestructuredBlocks(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	res, err := blast.Run(ds, blast.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rb := res.RestructuredBlocks(); rb.Len() != len(res.Pairs) {
			b.Fatal("bad restructuring")
		}
	}
}

// indexCorpus blocks the first base profiles of a seeded stream — the
// shape of bench/e2e's serving workloads at half their size: mean degree
// in the hundreds, a fraction of a percent of it retained — and returns
// the next streamed profiles of the stream for inserts.
func indexCorpus(b *testing.B, streamed int) (*blast.Pipeline, *blast.Blocks, []model.Profile) {
	b.Helper()
	ctx := context.Background()
	const base = 5000
	st := datasets.NewStream(base+streamed, 1)
	e := model.NewCollection("stream")
	for i := 0; i < base; i++ {
		e.Append(st.Profile(i))
	}
	ds := &model.Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	schema, err := p.InduceSchema(ctx, ds)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, schema)
	if err != nil {
		b.Fatal(err)
	}
	return p, blocks, st.Profiles(base, base+streamed)
}

// liveHeap is the heap in use after a full collection (two cycles, so
// that what the first one's finalizers and pools released is gone too).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// BenchmarkIndex_Freeze is a cold IndexBlocks over prebuilt Blocks — the
// blocking graph built, weighed, pruned and dropped, its retained rows
// kept. Run with -benchmem: B/op is the build's allocation (12 bytes an
// adjacency entry for the graph, nothing else per entry, plus one weight
// table a freeze for χ², ECBS and JS: O(max|B_u|³) cells, at most
// 2 MiB and never more cells than entries), and
// live-B/retained-entry what the frozen index holds beside its
// collection once the build is garbage — 12 bytes an entry for the rows
// plus 16 a profile, over the entries of the retained pairs.
func BenchmarkIndex_Freeze(b *testing.B) {
	ctx := context.Background()
	p, blocks, _ := indexCorpus(b, 0)
	var ix *blast.Index
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix, err = p.IndexBlocks(ctx, blocks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	edges, retained := ix.NumEdges(), ix.NumRetained()
	with := liveHeap()
	runtime.KeepAlive(ix)
	ix = nil
	b.ReportMetric((with-liveHeap())/float64(2*retained), "live-B/retained-entry")
	b.ReportMetric(float64(retained)/float64(edges), "retained-share")
	runtime.KeepAlive(blocks) // the collection is not the index's to count
}

// phase2Corpus returns a corpus and the loosely schema-aware key
// function of its default-options schema: build-cc's DBP clean-clean
// corpus ("dbp") or serve-stream's 10 000-profile base stream ("stream").
func phase2Corpus(b *testing.B, name string) (*model.Dataset, blocking.KeyFunc) {
	b.Helper()
	ds := datasets.DBP(0.25, 1)
	if name == "stream" {
		ds = blast.StreamDataset(10_000, 1)
	}
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	schema, err := p.InduceSchema(context.Background(), ds)
	if err != nil {
		b.Fatal(err)
	}
	return ds, schema.Partitioning.KeyFunc()
}

// BenchmarkBlocking_Phase2 is Phase 2 alone as bench/e2e's decomposed
// build calls it — BuildCtx, then CleanWorkflow under the default ratios.
// Run with -benchmem: B/op is what one pass allocates, live-B/membership
// what the cleaned collection keeps (4 bytes a membership, ≈ 20 plus the
// key a block).
func BenchmarkBlocking_Phase2(b *testing.B) {
	ctx := context.Background()
	o := blast.DefaultOptions()
	for _, name := range []string{"dbp", "stream"} {
		b.Run(name, func(b *testing.B) {
			ds, key := phase2Corpus(b, name)
			var c *blocking.Collection
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw, err := blocking.BuildCtx(ctx, ds, o.Transform, key)
				if err != nil {
					b.Fatal(err)
				}
				c = blocking.CleanWorkflow(raw, o.PurgeRatio, o.FilterRatio)
			}
			b.StopTimer()
			memberships := 0
			for _, n := range c.ProfileBlockCounts() {
				memberships += int(n)
			}
			with := liveHeap()
			runtime.KeepAlive(c)
			c = nil
			b.ReportMetric((with-liveHeap())/float64(memberships), "live-B/membership")
			b.ReportMetric(float64(memberships), "memberships")
		})
	}
}

// BenchmarkBlocking_Clone is what a shard or an inserting index pays for its
// own copy of a collection: "base" clones the cleaned stream collection
// (the arrays are shared, so O(1)), "tail" one whose writer appended the
// 1024 profiles serve-stream streams in (a copy of the appended members
// and materialised blocks only).
func BenchmarkBlocking_Clone(b *testing.B) {
	ctx := context.Background()
	o := blast.DefaultOptions()
	ds, key := phase2Corpus(b, "stream")
	raw, err := blocking.BuildCtx(ctx, ds, o.Transform, key)
	if err != nil {
		b.Fatal(err)
	}
	base := blocking.CleanWorkflow(raw, o.PurgeRatio, o.FilterRatio)
	writer := base.Clone()
	app := blocking.NewAppender(writer)
	for _, p := range datasets.NewStream(11_024, 1).Profiles(10_000, 11_024) {
		var keys []blocking.KeyEntropy
		for _, pair := range p.Pairs {
			for _, tok := range o.Transform.Terms(pair.Value) {
				if k, h, ok := key(0, pair.Name, tok); ok {
					keys = append(keys, blocking.KeyEntropy{Key: k, Entropy: h})
				}
			}
		}
		app.Append(keys)
	}
	for _, c := range []struct {
		name string
		c    *blocking.Collection
	}{{"base", base}, {"tail", writer}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cl := c.c.Clone(); cl.Len() != c.c.Len() {
					b.Fatal("clone lost blocks")
				}
			}
			b.ReportMetric(float64(c.c.Len()), "blocks")
		})
	}
}

// BenchmarkIndex_Lookup measures the online serving path, one
// per-profile candidate lookup into a reused buffer (0 allocs/op): a
// copy and a sort of the two or three entries of the profile's row, on
// a fresh index and on one an insert batch grew (the batch is folded in
// before the timer starts; bench/e2e's index.lookup_ns measures the path
// on build-cc's corpus).
func BenchmarkIndex_Lookup(b *testing.B) {
	ctx := context.Background()
	p, blocks, batch := indexCorpus(b, 16)
	ix, err := p.IndexBlocks(ctx, blocks)
	if err != nil {
		b.Fatal(err)
	}
	lookups := func(b *testing.B) {
		var buf []blast.Candidate
		np := ix.NumProfiles() // folds pending inserts in
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = ix.AppendCandidates(buf[:0], i%np)
		}
	}
	b.Run("frozen", lookups)
	if _, err := ix.InsertAll(ctx, batch); err != nil {
		b.Fatal(err)
	}
	b.Run("after-insert", lookups)
}

// BenchmarkIndex_Insert streams 256 profiles into a fresh index in
// batches of 16 and reads Pairs: "batch-then-read" appends every batch
// and reads once (one re-freeze), "read-every-batch" reads after each
// batch (one re-freeze a batch). An op is one stream; profiles/s is
// streamed profiles over the timed part, the index's build excluded.
func BenchmarkIndex_Insert(b *testing.B) {
	ctx := context.Background()
	const streamed, batch = 256, 16
	p, blocks, stream := indexCorpus(b, streamed)
	for _, c := range []struct {
		name  string
		every bool
	}{{"batch-then-read", false}, {"read-every-batch", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix, err := p.IndexBlocks(ctx, blocks)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for off := 0; off < streamed; off += batch {
					if _, err := ix.InsertAll(ctx, stream[off:off+batch]); err != nil {
						b.Fatal(err)
					}
					if c.every {
						ix.Pairs()
					}
				}
				ix.Pairs()
			}
			b.ReportMetric(float64(b.N*streamed)/b.Elapsed().Seconds(), "profiles/s")
		})
	}
}

// BenchmarkExtension_Baselines compares the blocking substrates feeding
// BLAST meta-blocking (the composability extension).
func BenchmarkExtension_Baselines(b *testing.B) {
	var rows []experiments.BaselineRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Baselines(experiments.Config{Scale: 0.3, Seed: 42}, "ar1")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Blocking == "token+lmi" {
			b.ReportMetric(r.F1, "lmiF1")
		}
	}
}

// BenchmarkExtension_Scalability measures phase overhead growth with
// dataset scale.
func BenchmarkExtension_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Scalability(experiments.Config{Scale: 0.2, Seed: 42}, "ar1", []float64{1, 2}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkAblation_TFIDFRepresentation compares binary/Jaccard vs
// TF-IDF/cosine attribute-match induction end to end.
func BenchmarkAblation_TFIDFRepresentation(b *testing.B) {
	ds := datasets.AR1(0.2, 42)
	for _, tfidf := range []bool{false, true} {
		b.Run(fmt.Sprintf("tfidf=%v", tfidf), func(b *testing.B) {
			var q metrics.Quality
			for i := 0; i < b.N; i++ {
				opt := blast.DefaultOptions()
				opt.TFIDF = tfidf
				res, err := blast.Run(ds, opt)
				if err != nil {
					b.Fatal(err)
				}
				q = res.Quality
			}
			b.ReportMetric(q.PC*100, "PC%")
			b.ReportMetric(q.PQ*100, "PQ%")
		})
	}
}

// parallelCSR builds the CSR of blocks on the given number of workers.
func parallelCSR(b *testing.B, blocks *blocking.Collection, workers int) *graph.CSR {
	g, err := graph.BuildCSRParallelCtx(context.Background(), blocks, workers)
	if err != nil {
		b.Fatal(err)
	}
	return g
}
