package main

// sweep-dirty and sweep-spill: one Blocks artifact, Phase 3 re-run over
// a grid of weightings and prunings. Blocking and graph build are
// set-up; the timed part is weights + prune and nothing else. The two
// share the corpus and differ only in where the adjacency lives —
// resident slices, or internal/store's page cache at a budget far below
// the working set — so a gain for resident passes that costs paged ones
// (or the reverse) shows as the two sweeps moving apart.

import (
	"context"
	"runtime"
	"time"
)

// The timed grids. The issue's 21-cell resident grid takes 9.5 s a pass
// on the 2-core builder, past what the run-time cap leaves after three
// timed passes and a warm-up; the cells cut (the EJS row and CNP2) are
// measured once per traced run. The paged grid has one weighting: a
// spilled CSR weighted a second time under another scheme serves stale
// weight pages from its cache (see README, observations), and a
// workload must not contain an operation that fails.
var (
	dirtySchemes  = []Scheme{schemeChi2H, schemeCBS}
	dirtyPrunings = []Pruning{pruneWEP, pruneCEP, pruneWNP1, pruneWNP2, pruneCNP1, pruneBlastWNP}
	spillSchemes  = []Scheme{schemeChi2H}
	spillPrunings = []Pruning{pruneWEP, pruneCEP, pruneWNP1, pruneWNP2, pruneBlastWNP}
)

const (
	spillBudget      = 32 << 20 // page cache 8 MiB against ~350 MB of adjacency
	spillBudgetQuick = 16 << 10
	cnp1Cap          = 4 * time.Second
)

func runSweep(ctx context.Context, b *bench, spill bool) {
	n, budget := 20000, int64(spillBudget)
	if b.quick {
		n, budget = 600, spillBudgetQuick
	}
	schemes, prunings := dirtySchemes, dirtyPrunings
	if spill {
		schemes, prunings = spillSchemes, spillPrunings
	}
	tr := b.tr
	p, err := newPipeline()
	b.fatal(err, "NewPipeline")
	dir := b.scratch("spill")

	var ds *Dataset
	var blocks *Blocks
	var csr *CSR
	closeCSR := func() {
		if csr != nil {
			b.must(csr.Close(), "CSR.Close")
		}
	}
	defer closeCSR()
	b.setup(func(root int) {
		closeCSR() // a repeated set-up releases the previous one's segments
		tr.in(root, "datasets.generate", 0, func() { ds, _, _ = genStream(n, 0, b.seed) })
		tr.in(root, "blocking.block", 0, func() {
			sch, err := p.InduceSchema(ctx, ds)
			b.fatal(err, "InduceSchema")
			blocks, err = p.Block(ctx, ds, sch)
			b.fatal(err, "Block")
		})
		if spill {
			tr.in(root, "graph.spill_build", 0, func() {
				csr, err = buildCSRSpill(ctx, blocks.Collection, dir, budget)
				b.fatal(err, "BuildCSRSpillCtx")
			})
			b.ok(csr.Spilled(), "corpus stayed under the %d-byte budget: nothing spilled", budget)
		} else {
			tr.in(root, "graph.build", 0, func() {
				csr, err = buildCSR(ctx, blocks.Collection, 0)
				b.fatal(err, "BuildCSRParallelCtx")
			})
		}
	})

	// pass runs the grid once over g and returns each cell's pairs hash
	// and the default cell's pairs.
	pass := func(g *CSR, root, rep int) (hashes []uint64, defaults []IDPair) {
		for _, s := range schemes {
			tr.in(root, "weights.apply."+schemeNames[s], rep, func() { s.ApplyCSR(g) })
			for _, pr := range prunings {
				var pairs []IDPair
				tr.in(root, "prune."+pr.String(), rep, func() {
					pairs, err = pruneCSR(ctx, g, s, pr, 0)
					b.fatal(err, "PruneCSR "+schemeNames[s]+"/"+pr.String())
				})
				b.attempted++
				hashes = append(hashes, hashPairs(pairs))
				if s == defaultScheme() && pr == defaultPruning() {
					defaults = pairs
				}
			}
		}
		b.must(g.Err(), "CSR.Err")
		return hashes, defaults
	}
	sameCells := func(got, want []uint64, what string) {
		for i := range want {
			b.sameHash(got[i], want[i], what)
		}
	}

	var want []uint64
	var defaults []IDPair
	warm := timed(func() { want, defaults = pass(csr, noSpan, 0) })
	var walls []float64
	order := permutation(n, b.seed)
	reps := b.reps(warm)
	if b.traced {
		reps = 1 // the untraced reference trace_overhead divides by
	}
	for i := 0; i < reps; i++ {
		quiet()
		var got []uint64
		walls = append(walls, timed(func() { got, _ = pass(csr, noSpan, 0) }))
		sameCells(got, want, "sweep repetition")
		b.readWindows(func(i int) { csr.Run(order[i%len(order)]) })
	}
	b.must(csr.Err(), "CSR.Err after row reads")
	b.rec("work_s", walls...)
	b.rec("sweep_s", walls...)

	q := evaluatePairs(defaults, ds.Truth)
	b.rec("pc", q.PC)
	b.rec("pq", q.PQ)
	b.rec("prune.retained_pairs", float64(len(defaults)))
	b.rec("graph.edges", float64(csr.NumEdges()))

	b.rec("lookups_per_s", b.rates...)

	if b.traced {
		for rep := 1; rep <= b.reps(warm); rep++ {
			quiet()
			root := tr.start(0, "sweep", rep)
			got, _ := pass(csr, root, rep)
			tr.end(root)
			sameCells(got, want, "traced sweep vs untraced")
		}
		b.rec("trace_overhead", median(tr.durations("sweep"))/median(walls))
		b.rec("weights.apply_s", tr.sumByRep("sweep", "weights.apply.")...)
		for _, s := range schemes {
			b.rec("weights.apply_s."+schemeNames[s], tr.sumByRep("sweep", "weights.apply."+schemeNames[s])...)
		}
		for _, pr := range prunings {
			b.rec("prune."+pr.String()+"_s", tr.sumByRep("sweep", "prune."+pr.String())...)
		}
		b.rec("prune.retained_share", float64(len(defaults))/float64(csr.NumEdges()))
		b.recSpans("datasets.generate_s", "datasets.generate")
		b.recSpans("blocking.build_s", "blocking.block")
		if spill {
			b.recSpans("graph.spill_build_s", "graph.spill_build")
		} else {
			b.recSpans("graph.build_s", "graph.build")
			probeSweepDirty(ctx, b, csr)
		}
	}

	if spill {
		// Every timed cell is checked against a resident CSR over the
		// same blocks, untimed; the same pass gives the paged slowdown.
		resident, err := buildCSR(ctx, blocks.Collection, 0)
		b.fatal(err, "BuildCSRParallelCtx")
		var got []uint64
		residentS := timed(func() { got, _ = pass(resident, noSpan, 0) })
		sameCells(got, want, "spilled cell vs resident CSR")
		resident = nil
		cs := csr.CacheStats()
		b.rec("disk_mb", float64(csr.SpillBytes())/1e6)
		if b.traced {
			b.rec("graph.paged_slowdown", median(walls)/residentS)
			b.rec("store.cache_hit_rate", cs.HitRate())
			b.rec("store.cache_misses", float64(cs.Misses))
			b.rec("store.cache_mb", float64(cs.Bytes)/1e6)
			b.rec("store.spill_mb", float64(csr.SpillBytes())/1e6)
			probeSweepSpill(ctx, b, csr)
		}
	}

	// Only the CSR (and, spilled, its page cache) stays reachable.
	ds, blocks, defaults, order = nil, nil, nil, nil
	b.rec("resident_mb", liveHeapMB())
	runtime.KeepAlive(csr)
}

// probeSweepDirty measures once what the timed grid leaves out (the EJS
// weighting, CNP2) and the serial/parallel pruning ratio.
func probeSweepDirty(ctx context.Context, b *bench, csr *CSR) {
	tr := b.tr
	prune := func(root int, name string, pr Pruning, workers int) {
		tr.in(root, name, 1, func() {
			_, err := pruneCSR(ctx, csr, schemeChi2H, pr, workers)
			b.fatal(err, "PruneCSR probe "+pr.String())
		})
	}
	quiet()
	root := tr.start(0, "probes", 1)
	tr.in(root, "weights.apply.ejs", 1, func() { schemeEJS.ApplyCSR(csr) })
	tr.in(root, "weights.apply.chi2h", 1, func() { schemeChi2H.ApplyCSR(csr) })
	prune(root, "prune.cnp2", pruneCNP2, 0)
	for _, pr := range []Pruning{pruneBlastWNP, pruneCNP1} {
		prune(root, "prune.serial", pr, 1)
		prune(root, "prune.parallel", pr, 0)
	}
	tr.end(root)
	b.rec("weights.apply_s.ejs", tr.sumByRep("probes", "weights.apply.ejs")...)
	b.rec("prune.cnp2_s", tr.sumByRep("probes", "prune.cnp2")...)
	b.rec("prune.parallel_speedup", sum(tr.durations("prune.serial"))/sum(tr.durations("prune.parallel")))
}

// probeSweepSpill records CNP1 over the spilled CSR under a deadline: it
// did not finish in ten minutes on the builder, so it is kept out of
// the timed grid and reads the cap until someone fixes it. Hitting the
// deadline is the expected outcome and counts no failure.
func probeSweepSpill(ctx context.Context, b *bench, csr *CSR) {
	limit := cnp1Cap
	if b.quick {
		limit = 200 * time.Millisecond
	}
	quiet()
	root := b.tr.start(0, "probes", 1)
	b.tr.in(root, "weights.apply.chi2h", 1, func() { schemeChi2H.ApplyCSR(csr) })
	b.tr.in(root, "prune.cnp1_capped", 1, func() {
		cctx, cancel := context.WithTimeout(ctx, limit)
		defer cancel()
		_, err := pruneCSR(cctx, csr, schemeChi2H, pruneCNP1, 0)
		b.ok(err == nil || cctx.Err() != nil, "capped CNP1: %v", err)
	})
	b.tr.end(root)
	b.rec("prune.cnp1_capped_s", min(median(b.tr.durations("prune.cnp1_capped")), limit.Seconds()))
}
