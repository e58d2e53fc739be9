package main

// build-cc: the paper's own pipeline, cold, on its largest and most
// heterogeneous dataset shape (DBP clean-clean). Loose-schema induction
// and graph construction do most of the work, pruning about 1 % — so a
// pruning change must not move it.

import (
	"context"
	"runtime"
	"time"
)

func runBuildCC(ctx context.Context, b *bench) {
	scale := 0.25
	if b.quick {
		scale = 0.02
	}
	p, err := newPipeline()
	b.fatal(err, "NewPipeline")

	var ds *Dataset
	b.setup(func(root int) {
		b.tr.in(root, "datasets.generate", 0, func() { ds = genDBP(scale, b.seed) })
	})

	// The public path: what a user calls. IndexBlocks is timed on its
	// own so the traced run can derive index.freeze_s from it.
	type sample struct {
		total, index, allocMB float64
		hash                  uint64
		blocks                *Blocks
		ix                    *Index
	}
	public := func() sample {
		quiet()
		a0, t0 := totalAllocMB(), time.Now()
		sch, err := p.InduceSchema(ctx, ds)
		b.fatal(err, "InduceSchema")
		blocks, err := p.Block(ctx, ds, sch)
		b.fatal(err, "Block")
		t1 := time.Now()
		ix, err := p.IndexBlocks(ctx, blocks)
		b.fatal(err, "IndexBlocks")
		pairs := ix.Pairs()
		t2 := time.Now()
		b.attempted++
		return sample{
			total: t2.Sub(t0).Seconds(), index: t2.Sub(t1).Seconds(), allocMB: totalAllocMB() - a0,
			hash: hashPairs(pairs), blocks: blocks, ix: ix,
		}
	}

	warm := public()
	last := warm
	var total, index, alloc []float64
	var buf []Candidate
	order := permutation(warm.ix.NumProfiles(), b.seed)
	n := b.reps(warm.total)
	if b.traced {
		n = 1 // the untraced reference trace_overhead divides by
	}
	for i := 0; i < n; i++ {
		last = public()
		b.sameHash(last.hash, warm.hash, "build repetition")
		total, index, alloc = append(total, last.total), append(index, last.index), append(alloc, last.allocMB)
		b.readWindows(func(i int) { buf = last.ix.AppendCandidates(buf[:0], order[i%len(order)]) })
	}
	b.rec("work_s", total...)
	b.rec("build_s", total...)
	b.rec("build_alloc_mb", alloc...)

	pairs := last.ix.Pairs()
	var q Quality
	evalS := timed(func() { q = evaluatePairs(pairs, ds.Truth) })
	b.rec("pc", q.PC)
	b.rec("pq", q.PQ)
	b.rec("prune.retained_pairs", float64(len(pairs)))

	b.rec("lookups_per_s", b.rates...)

	if b.traced {
		b.rec("metrics.evaluate_s", evalS)
		b.recSpans("datasets.generate_s", "datasets.generate")
		traceBuildCC(ctx, b, p, ds, last.blocks, last.ix, warm.hash, median(total), median(index))
	}

	// Only the frozen index stays reachable while the heap is read.
	ix := last.ix
	warm, last, ds, pairs, order = sample{}, sample{}, nil, nil, nil
	b.rec("resident_mb", liveHeapMB())
	runtime.KeepAlive(ix)
}

// traceBuildCC replays the build as the decomposed call sequence, one
// span per layer, and probes the layers the build embeds.
func traceBuildCC(ctx context.Context, b *bench, p *Pipeline, ds *Dataset, blocks *Blocks, ix *Index, want uint64, buildS, indexS float64) {
	tr := b.tr
	var csr *CSR
	var cleaned *Collection
	var nattrs, nclusters int
	for rep := 1; rep <= b.reps(buildS); rep++ {
		quiet()
		root := tr.start(0, "build", rep)
		var profiles []AttrProfile
		tr.in(root, "attr.extract", rep, func() { profiles = extractProfiles(ds) })
		var part *Partitioning
		tr.in(root, "attr.lmi", rep, func() {
			var err error
			part, err = induceLMI(ctx, profiles, ds)
			b.fatal(err, "LMICtx")
		})
		var raw *Collection
		tr.in(root, "blocking.build", rep, func() {
			var err error
			raw, err = buildBlocks(ctx, ds, part)
			b.fatal(err, "BuildCtx")
		})
		tr.in(root, "blocking.clean", rep, func() { cleaned = cleanBlocks(raw) })
		tr.in(root, "graph.build", rep, func() {
			var err error
			csr, err = buildCSR(ctx, cleaned, 0)
			b.fatal(err, "BuildCSRParallelCtx")
		})
		tr.in(root, "weights.apply", rep, func() { defaultScheme().ApplyCSR(csr) })
		var pairs []IDPair
		tr.in(root, "prune."+defaultPruning().String(), rep, func() {
			var err error
			pairs, err = pruneCSR(ctx, csr, defaultScheme(), defaultPruning(), 0)
			b.fatal(err, "PruneCSR")
		})
		tr.end(root)
		b.sameHash(hashPairs(pairs), want, "decomposed build vs public path")
		nattrs, nclusters = len(profiles), part.NumClusters()
	}
	b.recSpans("attr.extract_s", "attr.extract")
	b.recSpans("attr.lmi_s", "attr.lmi")
	b.recSpans("blocking.build_s", "blocking.build")
	b.recSpans("blocking.clean_s", "blocking.clean")
	b.recSpans("graph.build_s", "graph.build")
	b.recSpans("weights.apply_s", "weights.apply")
	b.recSpans("prune.blast-wnp_s", "prune.blast-wnp")
	b.rec("trace_overhead", median(tr.durations("build"))/buildS)
	phase3 := median(tr.durations("graph.build")) + median(tr.durations("weights.apply")) + median(tr.durations("prune.blast-wnp"))
	b.rec("index.freeze_s", max(indexS-phase3, 0))

	edges, comparisons := csr.NumEdges(), cleaned.AggregateCardinality()
	b.rec("attr.attributes", float64(nattrs))
	b.rec("attr.clusters", float64(nclusters))
	b.rec("blocking.blocks", float64(cleaned.Len()))
	b.rec("blocking.comparisons", float64(comparisons))
	b.rec("graph.edges", float64(edges))
	b.rec("graph.comparisons_per_edge", float64(comparisons)/float64(edges))
	b.rec("prune.retained_share", float64(len(ix.Pairs()))/float64(edges))
	csr = nil

	// Probes: layers the build embeds or bypasses, each under its own
	// span of one "probes" root.
	quiet()
	root := tr.start(0, "probes", 1)
	tokens := 0
	tr.in(root, "text.tokenize", 1, func() { tokens = tokenizeAll(ds) })
	tr.in(root, "graph.build_serial", 1, func() {
		_, err := buildCSR(ctx, cleaned, 1)
		b.fatal(err, "BuildCSRParallelCtx(1)")
	})
	var bq Quality
	tr.in(root, "metrics.evaluate_blocks", 1, func() { bq = evaluateBlocks(cleaned, ds.Truth) })
	tr.in(root, "metablocking.metablock", 1, func() {
		res, err := p.MetaBlock(ctx, blocks)
		b.fatal(err, "MetaBlock")
		b.sameHash(hashPairs(res.Pairs), want, "MetaBlock vs IndexBlocks")
	})
	tr.in(root, "index.pairs", 1, func() { ix.Pairs() })
	var buf []Candidate
	np := ix.NumProfiles()
	tr.in(root, "index.lookup", 1, func() {
		for i := 0; i < np; i++ {
			buf = ix.AppendCandidates(buf[:0], i)
		}
	})
	tr.end(root)
	b.recSpans("text.tokenize_s", "text.tokenize")
	b.rec("text.tokens", float64(tokens))
	b.recSpans("graph.build_serial_s", "graph.build_serial")
	b.rec("graph.parallel_speedup", median(tr.durations("graph.build_serial"))/median(tr.durations("graph.build")))
	b.rec("blocking.pc", bq.PC)
	b.rec("blocking.pq", bq.PQ)
	b.recSpans("metablocking.metablock_s", "metablocking.metablock")
	b.recSpans("index.pairs_s", "index.pairs")
	b.rec("index.lookup_ns", median(tr.durations("index.lookup"))*1e9/float64(np))
}
