package main

// serve-stream: a durable, partitioned, two-shard server takes a stream
// of small insert batches from one writer while one reader keeps looking
// candidates up; then read-only lookups, a kill image, recovery and the
// differential against a cold rebuild. It uses graph/weights/prune
// differently from the builds — owned-row rebuilds, exports and swaps
// instead of one bulk build — and is where wal, persist, shard,
// durable.go and partition.go do the work.

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// serveScale sizes the two serving workloads: base profiles served
// cold, profiles per stream, per warm-up stream, and per insert.
type serveScale struct{ base, streamed, warm, batch int }

func (b *bench) serveScale(batch int) serveScale {
	if b.quick {
		return serveScale{base: 600, streamed: 16 * batch, warm: 0, batch: batch}
	}
	// 1024 streamed profiles cross the 256-profile swap trigger four
	// times, the warm-up stream once; in serve-stream's batches of 16
	// they are the 64 batches after which a snapshot is persisted.
	return serveScale{base: 10000, streamed: 1024, warm: 256, batch: batch}
}

// streamReps is the number of fresh-server repetitions, full on the
// untraced run.
// The traced run leaves the first one untraced, so it needs a second
// even at -quick scale.
func (b *bench) streamReps(full int) int {
	switch {
	case b.quick && !b.traced:
		return 1
	case b.quick:
		return 2
	case b.traced:
		return 3
	}
	return full
}

// corpus is the seeded input of a serving workload and the Blocks
// artifact the server is seeded with.
type corpus struct {
	ds     *Dataset
	stream []Profile
	truth  *Truth
	blocks *Blocks
}

func (b *bench) prepare(ctx context.Context, p *Pipeline, sc serveScale, root int) corpus {
	var c corpus
	b.tr.in(root, "datasets.generate", 0, func() { c.ds, c.stream, c.truth = genStream(sc.base, sc.streamed, b.seed) })
	b.tr.in(root, "blocking.block", 0, func() {
		sch, err := p.InduceSchema(ctx, c.ds)
		b.fatal(err, "InduceSchema")
		c.blocks, err = p.Block(ctx, c.ds, sch)
		b.fatal(err, "Block")
	})
	return c
}

// streamResult is what one writer+reader stream over a fresh server
// measured.
type streamResult struct {
	wall, admit, drain float64
	insertMS           []float64 // per InsertAll call
	mixedNS            []float64 // per lookup, one sample per reader batch of 1024
	maxQueued          int
}

// streamInto sends profiles as InsertAll batches from this goroutine
// while a reader goroutine loops AppendCandidates, then quiesces. The
// wall runs from the first insert sent to Quiesce returned: admitted
// and applied and published.
func (b *bench) streamInto(ctx context.Context, srv *Server, sc serveScale, profiles []Profile, root, rep int) streamResult {
	var r streamResult
	order := permutation(sc.base, b.seed)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []Candidate
		for i, batches := 0, 0; ; batches++ {
			select {
			case <-done:
				return
			default:
			}
			t0 := time.Now()
			for k := 0; k < 1024; k++ {
				buf = srv.AppendCandidates(buf[:0], order[i%len(order)])
				i++
			}
			r.mixedNS = append(r.mixedNS, float64(time.Since(t0).Nanoseconds())/1024)
			if batches%8 == 0 {
				for _, st := range srv.Stats() {
					r.maxQueued = max(r.maxQueued, st.Queued)
				}
			}
		}
	}()

	t0 := time.Now()
	for off := 0; off < len(profiles); off += sc.batch {
		batch := profiles[off:min(off+sc.batch, len(profiles))]
		tb := time.Now()
		id := b.tr.start(root, "server.admit", rep)
		ids, err := srv.InsertAll(ctx, batch)
		b.tr.end(id)
		r.insertMS = append(r.insertMS, time.Since(tb).Seconds()*1e3)
		b.ok(err == nil && len(ids) == len(batch), "InsertAll: %d ids, %v", len(ids), err)
	}
	r.admit = time.Since(t0).Seconds()
	b.tr.in(root, "server.drain", rep, func() { b.must(srv.Quiesce(ctx), "Quiesce") })
	r.wall = time.Since(t0).Seconds()
	r.drain = r.wall - r.admit
	close(done)
	wg.Wait()
	return r
}

func runServeStream(ctx context.Context, b *bench) {
	sc := b.serveScale(16)
	tr := b.tr
	p, err := newPipeline()
	b.fatal(err, "NewPipeline")

	// Every repetition streams into a fresh server, so set-up (corpus,
	// blocks, cold ServeBlocks) repeats with it and setup_s is its median.
	//
	// The timed streams run with snapshot persistence off. At its default
	// every 64th batch makes each shard write and fsync a 30 MB snapshot on
	// its apply path; on the builder's shared disk that quarter of the
	// stream swung by a factor of two from minute to minute and with it
	// work_s by a third, past any bound the contract allows. One more
	// stream, after the timed ones, runs with the default policy — its
	// Quiesce publishes at batch 64, so both shards persist a snapshot at
	// the WAL cut, the only kind a partitioned recovery adopts. Its wall
	// is persist.stream_s, and the disk, kill image and recovery readings
	// come from it.
	var c corpus
	var srv *Server
	var dir string
	var setups, colds []float64
	fresh := func(rootName string, rep int, snapshots bool) int {
		quiet()
		// The traced run leaves its first repetition untraced: the
		// figure trace_overhead divides by.
		root := noSpan
		if rep != 1 {
			root = tr.start(0, rootName, rep)
		}
		setups = append(setups, timed(func() {
			c = b.prepare(ctx, p, sc, root)
			dir = b.scratch("serve")
			tr.in(root, "server.cold_serve", rep, func() {
				colds = append(colds, timed(func() { srv, err = serve(ctx, p, c.blocks, dir, snapshots) }))
			})
			b.fatal(err, "ServeBlocks")
		}))
		return root
	}
	var closes []float64
	discard := func(rep int) {
		tr.solo("teardown", "server.close", rep, func() {
			closes = append(closes, timed(func() { b.must(srv.Close(), "Server.Close") }))
		})
		b.must(os.RemoveAll(dir), "remove server dir")
	}

	// killImage copies the server's directory as a SIGKILL would leave it
	// (WAL writes are unbuffered and every acknowledged batch was
	// fsynced) and returns it with the hash of the pairs it must recover.
	type killImage struct {
		dir  string
		want uint64
	}
	snapshot := func(pairs []IDPair) killImage {
		im := killImage{dir: b.scratch("image"), want: hashPairs(pairs)}
		b.fatal(copyDir(dir, im.dir), "copy kill image")
		return im
	}

	// The warm-up server's image is the one recovery replays from the WAL
	// alone: 16 records, because a full replay (0.13 s a record here)
	// would outlast the streams it recovers.
	var replay killImage
	if sc.warm > 0 {
		root := fresh("stream", 0, false)
		b.streamInto(ctx, srv, sc, c.stream[:sc.warm], root, 0)
		tr.end(root)
		if b.traced {
			pairs, err := srv.Pairs(ctx)
			b.fatal(err, "Server.Pairs")
			replay = snapshot(pairs)
		}
		discard(0)
	}
	reps := b.streamReps(5)
	var walls, admits, drains, insertMS, mixedNS []float64
	maxQueued := 0
	total := sc.base + sc.streamed
	order := permutation(total, b.seed)
	var buf []Candidate
	for rep := 1; rep <= reps; rep++ {
		if rep > 1 {
			discard(rep - 1)
		}
		root := fresh("stream", rep, false)
		r := b.streamInto(ctx, srv, sc, c.stream, root, rep)
		tr.end(root)
		walls, admits, drains = append(walls, r.wall), append(admits, r.admit), append(drains, r.drain)
		insertMS, mixedNS = append(insertMS, r.insertMS...), append(mixedNS, r.mixedNS...)
		maxQueued = max(maxQueued, r.maxQueued)
		// Read-only lookups on the quiesced server.
		b.readWindows(func(i int) { buf = srv.AppendCandidates(buf[:0], order[i%total]) })
	}
	b.rec("setup_s", setups...)
	b.rec("work_s", walls...)
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(sc.streamed) / w
	}
	b.rec("insert_profiles_per_s", rates...)
	b.rec("insert_p50_ms", insertMS...)

	b.rec("lookups_per_s", b.rates...)

	// The stream with snapshot persistence. Its server stays up: Pairs,
	// the kill image, the cold-rebuild differential.
	discard(reps)
	root := fresh("persist-stream", reps+1, true)
	durable := b.streamInto(ctx, srv, sc, c.stream, root, reps+1)
	tr.end(root)
	b.rec("persist.stream_s", durable.wall)

	var pairs []IDPair
	var pairsS float64
	tr.solo("readout", "server.pairs", reps, func() { pairsS = timed(func() { pairs, err = srv.Pairs(ctx) }) })
	b.fatal(err, "Server.Pairs")
	q := evaluatePairs(pairs, c.truth)
	b.rec("pc", q.PC)
	b.rec("pq", q.PQ)
	b.rec("prune.retained_pairs", float64(len(pairs)))

	image := snapshot(pairs)
	if replay.dir == "" {
		replay = image
	}
	b.rec("disk_mb", dirMB(dir))

	cold, err := p.IndexBlocks(ctx, blocksOf(srv.Blocks(), srv.Schema()))
	b.fatal(err, "cold IndexBlocks")
	b.sameHash(hashPairs(cold.Pairs()), image.want, "server vs cold rebuild")
	b.rec("graph.edges", float64(cold.NumEdges()))
	cold = nil

	if b.traced {
		b.rec("server.cold_serve_s", colds...)
		b.rec("server.admit_total_s", admits...)
		b.rec("server.admit_p99_ms", percentile(insertMS, 0.99))
		b.rec("server.drain_s", drains...)
		b.rec("server.lookup_ns", 1e9/median(b.rates))
		b.rec("server.mixed_lookup_ns", mixedNS...)
		b.rec("server.pairs_s", pairsS)
		b.rec("shard.max_queued", float64(maxQueued))
		b.rec("datasets.generate_s", tr.durations("datasets.generate")...)
		b.rec("blocking.build_s", tr.durations("blocking.block")...)
		var apply, maxApply, swaps, batches, resident, maxRows, rows float64
		for _, st := range srv.Stats() {
			a := st.ApplyTime.Seconds()
			apply, maxApply = apply+a, max(maxApply, a)
			swaps, batches = swaps+float64(st.Swaps), max(batches, float64(st.Batches))
			resident += float64(st.ResidentBytes)
			rows, maxRows = rows+float64(st.OwnedRows), max(maxRows, float64(st.OwnedRows))
		}
		b.rec("shard.apply_s", apply)
		b.rec("shard.export_publish_s", durable.wall-maxApply)
		b.rec("shard.swaps", swaps)
		b.rec("shard.batches", batches)
		b.rec("server.owned_rows_skew", maxRows/(rows/serverShards))
		b.rec("server.resident_bytes", resident)
		b.rec("wal.bytes", dirMB(filepath.Join(dir, "wal"))*1e6)
		b.rec("persist.snapshot_mb", dirMB(filepath.Join(dir, "snap")))
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap", "*", "*.snap"))
		b.rec("persist.snapshots", float64(len(snaps)))
		probeDurability(ctx, b, p, c, sc)
	}

	// Only the quiesced server stays reachable while the heap is read.
	c, pairs, order = corpus{}, nil, nil
	b.rec("resident_mb", liveHeapMB())
	runtime.KeepAlive(srv)
	discard(reps + 1)
	if b.traced {
		b.rec("server.close_s", closes...)
		b.rec("trace_overhead", median(walls[1:])/walls[0])
	}

	// Recovery: reopen copies of the kill image (each shard's snapshot at
	// the WAL cut) until a serving server is returned.
	c = b.prepare(ctx, p, sc, noSpan)
	reopen := func(name string, rep int, im killImage, strip bool) float64 {
		work := b.scratch("reopen")
		defer os.RemoveAll(work)
		b.fatal(copyDir(im.dir, work), "copy kill image")
		if strip {
			snaps, _ := filepath.Glob(filepath.Join(work, "snap", "*", "*.snap"))
			for _, s := range snaps {
				b.fatal(os.Remove(s), "remove snapshot")
			}
		}
		quiet()
		var srv2 *Server
		root := tr.start(0, "recover", rep)
		id := tr.start(root, name, rep)
		s := timed(func() { srv2, err = serve(ctx, p, c.blocks, work, true) })
		tr.end(id)
		tr.end(root)
		b.fatal(err, "ServeBlocks over the kill image")
		got, err := srv2.Pairs(ctx)
		b.fatal(err, "recovered Server.Pairs")
		b.sameHash(hashPairs(got), im.want, "recovered server vs pre-kill server")
		b.must(srv2.Close(), "recovered Server.Close")
		return s
	}
	var recovers []float64
	for rep := 1; rep <= min(reps, 3); rep++ {
		recovers = append(recovers, reopen("durable.recover_snapshot", rep, image, false))
	}
	b.rec("recover_s", recovers...)
	if b.traced {
		b.rec("durable.recover_snapshot_s", recovers...)
		b.rec("durable.recover_walreplay_s", reopen("durable.recover_walreplay", reps+1, replay, true))
		b.rec("durable.recover_vs_cold", median(recovers)/median(colds))
	}
}

// probeDurability times the journal's two halves standalone on the
// stream's own batches — encoding a shard's owned subset, and appending
// with one fsync per record — and the bare Index insert path the server
// is compared against.
func probeDurability(ctx context.Context, b *bench, p *Pipeline, c corpus, sc serveScale) {
	tr := b.tr
	work := b.scratch("wal")
	defer os.RemoveAll(work)
	var payloads [][]byte
	quiet()
	root := tr.start(0, "probes", 1)
	tr.in(root, "wal.encode", 1, func() {
		for off := 0; off < len(c.stream); off += sc.batch {
			batch := c.stream[off:min(off+sc.batch, len(c.stream))]
			payloads = append(payloads, walEncodeOwned(nil, batch, sc.base+off))
		}
	})
	log, err := walOpen(filepath.Join(work, "probe.wal"))
	b.fatal(err, "wal.Open")
	tr.in(root, "wal.append_sync", 1, func() {
		for _, pl := range payloads {
			b.must(log.Append(pl), "wal.Append")
		}
	})
	b.must(log.Close(), "wal.Close")

	// Bare Index.InsertAll over the first 256 streamed profiles in the
	// same batches: the overlay + localized-finalize use of the graph.
	var ix *Index
	tr.in(root, "index.build", 1, func() {
		ix, err = p.IndexBlocks(ctx, c.blocks)
		b.fatal(err, "IndexBlocks")
	})
	head := c.stream[:min(256, len(c.stream))]
	tr.in(root, "index.insert", 1, func() {
		for off := 0; off < len(head); off += sc.batch {
			_, err := ix.InsertAll(ctx, head[off:min(off+sc.batch, len(head))])
			b.must(err, "Index.InsertAll")
		}
	})
	tr.end(root)
	nb := float64(len(payloads))
	b.rec("wal.encode_us_per_batch", median(tr.durations("wal.encode"))*1e6/nb)
	b.rec("wal.append_sync_us_per_batch", median(tr.durations("wal.append_sync"))*1e6/nb)
	b.rec("index.insert_profiles_per_s", float64(len(head))/median(tr.durations("index.insert")))
	st := ix.Stats()
	b.rec("index.localized_batches", float64(st.LocalizedBatches))
	b.rec("index.rebuilt_batches", float64(st.RebuiltBatches))
	b.rec("index.compactions", float64(st.Compactions))
}
