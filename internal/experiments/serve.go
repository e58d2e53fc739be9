package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blast"
	"blast/internal/model"
	"blast/internal/stats"
)

// ServeRow summarizes sharded snapshot-swap serving on one registry
// dataset under a mixed read/write load, for one configuration: either
// the single mutable Index baseline (mode "index": readers share the
// RWMutex with the insert path) or a blast.Server (mode "server":
// readers are wait-free on per-shard published snapshots).
//
// The harness drives one reader goroutine per shard (per-partition
// serving loops), so aggregate read throughput reflects shard
// parallelism up to the host's core count; GOMAXPROCS is recorded
// because the attainable 1->N scaling is bounded by it (the CI
// regression gate only enforces the scaling floor on hosts with enough
// cores to express it).
type ServeRow struct {
	Dataset      string `json:"dataset"`
	Mode         string `json:"mode"` // "index" (baseline) or "server"
	Shards       int    `json:"shards"`
	Readers      int    `json:"readers"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	BaseProfiles int    `json:"base_profiles"`
	Streamed     int    `json:"streamed"`

	// InsertPerShard is the per-shard apply rate during the mixed phase:
	// every shard applies the full stream, so this is streamed profiles
	// over the mixed-phase wall clock.
	InsertPerShard float64 `json:"insert_per_shard_per_sec"`

	// Mixed-phase read latency distribution (reads racing the writers).
	MixedP50 time.Duration `json:"mixed_read_p50_ns"`
	MixedP95 time.Duration `json:"mixed_read_p95_ns"`
	MixedP99 time.Duration `json:"mixed_read_p99_ns"`

	// ReadThroughput is the aggregate reads/sec of the read-only window
	// after quiescing — the shard-scaling metric.
	ReadThroughput float64 `json:"reads_per_sec"`
	// ScalingVs1 is ReadThroughput over the 1-shard server row's (1 for
	// that row itself; 0 for the baseline row).
	ScalingVs1 float64 `json:"scaling_vs_1shard"`

	Swaps       int64         `json:"swaps"`
	QuiesceTime time.Duration `json:"quiesce_ns"`
	// PairsMatch records the differential check of the largest server
	// configuration against a cold IndexBlocks over the union collection
	// (true for rows where the check was not run).
	PairsMatch bool `json:"pairs_match"`
}

// serveSwapOps is the op-count swap cadence of the serve experiment:
// frequent enough that the mixed phase actually exercises snapshot
// churn on every dataset scale.
const serveSwapOps = 64

// Serve measures sharded snapshot-swap serving on one registry dataset
// (default: dbp, the largest) across shard counts (default 1, 2, 4),
// against the single mutable Index baseline. window is the length of
// the read-only measurement phase per configuration (0 selects 250ms).
// The largest server configuration is differentially checked against a
// cold rebuild; a divergence fails the run.
func Serve(cfg Config, name string, shardCounts []int, window time.Duration) ([]ServeRow, error) {
	if name == "" {
		name = "dbp"
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	if window <= 0 {
		window = 250 * time.Millisecond
	}
	full, err := cfg.load(name)
	if err != nil {
		return nil, err
	}
	base, stream := splitStream(full)
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sch, err := p.InduceSchema(ctx, base)
	if err != nil {
		return nil, err
	}
	blocks, err := p.Block(ctx, base, sch)
	if err != nil {
		return nil, err
	}

	maxShards := slices.Max(shardCounts)
	rows := make([]ServeRow, 0, len(shardCounts)+1)
	baseline, err := serveBaseline(p, blocks, base, stream, maxShards, window)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", name, err)
	}
	baseline.Dataset = name
	rows = append(rows, baseline)
	for _, sc := range shardCounts {
		row, err := serveSharded(p, blocks, base, stream, sc, window, sc == maxShards)
		if err != nil {
			return nil, fmt.Errorf("%s shards=%d: %w", name, sc, err)
		}
		row.Dataset = name
		rows = append(rows, row)
	}
	var t1 float64
	for _, r := range rows {
		if r.Mode == "server" && r.Shards == 1 {
			t1 = r.ReadThroughput
		}
	}
	if t1 > 0 {
		for i := range rows {
			if rows[i].Mode == "server" {
				rows[i].ScalingVs1 = rows[i].ReadThroughput / t1
			}
		}
	}
	return rows, nil
}

// candidateReader is the read half of both harnesses: a function
// serving one profile's candidates into a reused buffer.
type candidateReader func(buf []blast.Candidate, profile int) []blast.Candidate

// mixedLoad runs readers (one goroutine each) against read while the
// writer function streams inserts, returning the merged read latency
// samples and the mixed-phase duration.
func mixedLoad(readers, numProfiles int, read candidateReader, write func() error) ([]time.Duration, time.Duration, error) {
	var stop atomic.Bool
	lat := make([][]time.Duration, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(r)*7919 + 1)
			buf := make([]blast.Candidate, 0, 1024)
			for !stop.Load() {
				q0 := time.Now()
				buf = read(buf[:0], rng.Intn(numProfiles))
				lat[r] = append(lat[r], time.Since(q0))
			}
		}(r)
	}
	t0 := time.Now()
	err := write()
	elapsed := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, elapsed, err
}

// readOnlyLoad measures aggregate read throughput over a fixed window
// with one goroutine per reader.
func readOnlyLoad(readers, numProfiles int, read candidateReader, window time.Duration) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(r)*104729 + 3)
			buf := make([]blast.Candidate, 0, 1024)
			n := int64(0)
			// Check the clock every few reads so its cost stays off the
			// measured path.
			for time.Now().Before(deadline) {
				for k := 0; k < 64; k++ {
					buf = read(buf[:0], rng.Intn(numProfiles))
				}
				n += 64
			}
			total.Add(n)
		}(r)
	}
	wg.Wait()
	return float64(total.Load()) / window.Seconds()
}

// insertBatches streams the profiles through insert in batches of 8.
func insertBatches(stream []model.Profile, insert func([]model.Profile) error) error {
	const batch = 8
	for off := 0; off < len(stream); off += batch {
		end := off + batch
		if end > len(stream) {
			end = len(stream)
		}
		if err := insert(stream[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// serveSharded measures one blast.Server configuration.
func serveSharded(p *blast.Pipeline, blocks *blast.Blocks, base *model.Dataset, stream []model.Profile, shards int, window time.Duration, verify bool) (ServeRow, error) {
	ctx := context.Background()
	srv, err := p.ServeBlocks(ctx, blocks, blast.ServerOptions{Shards: shards, SwapOps: serveSwapOps})
	if err != nil {
		return ServeRow{}, err
	}
	defer srv.Close()
	n0 := base.NumProfiles()
	read := func(buf []blast.Candidate, profile int) []blast.Candidate {
		return srv.AppendCandidates(buf, profile)
	}
	write := func() error {
		if err := insertBatches(stream, func(b []model.Profile) error {
			_, err := srv.InsertAll(ctx, b)
			return err
		}); err != nil {
			return err
		}
		// The mixed phase ends only when every shard has applied the
		// stream, so the apply rate is wall-clock honest.
		return srv.Quiesce(ctx)
	}
	lat, mixed, err := mixedLoad(shards, n0, read, write)
	if err != nil {
		return ServeRow{}, err
	}
	q0 := time.Now()
	if err := srv.Quiesce(ctx); err != nil {
		return ServeRow{}, err
	}
	quiesce := time.Since(q0)

	row := ServeRow{
		Mode:           "server",
		Shards:         shards,
		Readers:        shards,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		BaseProfiles:   n0,
		Streamed:       len(stream),
		MixedP50:       percentile(lat, 0.50),
		MixedP95:       percentile(lat, 0.95),
		MixedP99:       percentile(lat, 0.99),
		ReadThroughput: readOnlyLoad(shards, srv.NumProfiles(), read, window),
		QuiesceTime:    quiesce,
		PairsMatch:     true,
	}
	if mixed > 0 {
		row.InsertPerShard = float64(len(stream)) / mixed.Seconds()
	}
	for _, st := range srv.Stats() {
		row.Swaps += st.Swaps
	}
	if verify {
		cold, err := p.IndexBlocks(ctx, &blast.Blocks{Collection: srv.Blocks().Clone(), Schema: srv.Schema()})
		if err != nil {
			return ServeRow{}, fmt.Errorf("cold rebuild: %w", err)
		}
		got, err := srv.Pairs(ctx)
		if err != nil {
			return ServeRow{}, err
		}
		row.PairsMatch = slices.Equal(cold.Pairs(), got)
		if !row.PairsMatch {
			// The experiment doubles as a real-dataset differential check;
			// a divergence must fail the run (and CI), not annotate a row.
			return ServeRow{}, fmt.Errorf("sharded server diverged from the cold rebuild (%d vs %d pairs)",
				len(got), cold.NumRetained())
		}
	}
	return row, nil
}

// serveBaseline measures the single mutable Index under the same mixed
// load shape: one writer streaming InsertAll against readers sharing
// the index's RWMutex.
func serveBaseline(p *blast.Pipeline, blocks *blast.Blocks, base *model.Dataset, stream []model.Profile, readers int, window time.Duration) (ServeRow, error) {
	ctx := context.Background()
	ix, err := p.IndexBlocks(ctx, &blast.Blocks{Collection: blocks.Collection.Clone(), Schema: blocks.Schema})
	if err != nil {
		return ServeRow{}, err
	}
	n0 := base.NumProfiles()
	read := func(buf []blast.Candidate, profile int) []blast.Candidate {
		return ix.AppendCandidates(buf, profile)
	}
	write := func() error {
		return insertBatches(stream, func(b []model.Profile) error {
			_, err := ix.InsertAll(ctx, b)
			return err
		})
	}
	lat, mixed, err := mixedLoad(readers, n0, read, write)
	if err != nil {
		return ServeRow{}, err
	}
	row := ServeRow{
		Mode:           "index",
		Shards:         1,
		Readers:        readers,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		BaseProfiles:   n0,
		Streamed:       len(stream),
		MixedP50:       percentile(lat, 0.50),
		MixedP95:       percentile(lat, 0.95),
		MixedP99:       percentile(lat, 0.99),
		ReadThroughput: readOnlyLoad(readers, ix.NumProfiles(), read, window),
		PairsMatch:     true,
	}
	if mixed > 0 {
		row.InsertPerShard = float64(len(stream)) / mixed.Seconds()
	}
	return row, nil
}

// RenderServe formats the serving series.
func RenderServe(rows []ServeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded snapshot-swap serving vs single mutable Index (mixed read/write load)\n")
	fmt.Fprintf(&b, "%-8s %-7s %7s %8s %10s %9s %9s %9s %12s %8s %6s %7s\n",
		"dataset", "mode", "shards", "streamed", "ins/s/shd", "p50", "p95", "p99", "reads/s", "scaling", "swaps", "match")
	for _, r := range rows {
		scaling := "-"
		if r.ScalingVs1 > 0 {
			scaling = fmt.Sprintf("%.2fx", r.ScalingVs1)
		}
		fmt.Fprintf(&b, "%-8s %-7s %7d %8d %10.0f %9s %9s %9s %12.0f %8s %6d %7v\n",
			r.Dataset, r.Mode, r.Shards, r.Streamed, r.InsertPerShard,
			r.MixedP50, r.MixedP95, r.MixedP99, r.ReadThroughput, scaling, r.Swaps, r.PairsMatch)
	}
	return b.String()
}

// ServeJSON renders the rows as indented JSON (the CI artifact
// BENCH_serve.json).
func ServeJSON(rows []ServeRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}

// incrementalHoldout picks how many profiles of the streamed source to
// hold out: a tenth, clamped to [16, 400].
func incrementalHoldout(sourceLen int) int {
	h := sourceLen / 10
	if h < 16 {
		h = 16
	}
	if h > 400 {
		h = 400
	}
	if h >= sourceLen {
		h = sourceLen / 2
	}
	return h
}

// splitStream cuts a holdout tail off a dataset for streaming-insert
// experiments: for dirty datasets the tail of E1, for clean-clean the
// tail of E2 (new entities arriving against a fixed reference
// collection). Returns the truncated base dataset and the held-out
// profiles in arrival order.
func splitStream(full *model.Dataset) (*model.Dataset, []model.Profile) {
	if full.Kind == model.CleanClean {
		h := incrementalHoldout(full.E2.Len())
		cut := full.E2.Len() - h
		base := &model.Dataset{
			Name: full.Name, Kind: model.CleanClean,
			E1:    full.E1,
			E2:    &model.Collection{Name: full.E2.Name, Profiles: full.E2.Profiles[:cut]},
			Truth: model.NewGroundTruth(),
		}
		return base, full.E2.Profiles[cut:]
	}
	h := incrementalHoldout(full.E1.Len())
	cut := full.E1.Len() - h
	base := &model.Dataset{
		Name: full.Name, Kind: model.Dirty,
		E1:    &model.Collection{Name: full.E1.Name, Profiles: full.E1.Profiles[:cut]},
		Truth: model.NewGroundTruth(),
	}
	return base, full.E1.Profiles[cut:]
}
