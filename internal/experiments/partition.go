package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"blast"
	"blast/internal/model"
)

// PartitionRow summarizes one shard-count configuration of blast.Server
// under a pure write stream on one registry dataset: the write
// throughput (stream admitted, applied and published on every shard),
// and the per-shard state residency afterward. Each shard holds only its
// owned rows' slice, so the per-shard maximum must shrink as shards are
// added — that shrinking series is what the CI gate checks.
type PartitionRow struct {
	Dataset      string `json:"dataset"`
	Shards       int    `json:"shards"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	BaseProfiles int    `json:"base_profiles"`
	Streamed     int    `json:"streamed"`

	// InsertThroughput is streamed profiles per second of wall clock,
	// measured from the first insert to a completed Quiesce (every shard
	// applied and published the stream).
	InsertThroughput float64 `json:"inserts_per_sec"`

	// MaxOwnedRows and MaxResidentBytes are the maximum over the shards
	// of the published snapshot's row count and approximate heap
	// footprint. TotalResidentBytes sums the per-shard footprints, flat in
	// the shard count (the rows are divided, not copied).
	MaxOwnedRows       int   `json:"max_owned_rows"`
	MaxResidentBytes   int64 `json:"max_resident_bytes"`
	TotalResidentBytes int64 `json:"total_resident_bytes"`

	// MemVs1 is MaxResidentBytes over the 1-shard row (1 for that row
	// itself) — the per-shard memory scaling series.
	MemVs1 float64 `json:"mem_vs_1shard"`

	// PairsMatch records the differential check against a cold
	// IndexBlocks over the union collection (true where not run; it runs
	// on the largest shard count and a divergence fails the experiment).
	PairsMatch bool `json:"pairs_match"`
}

// partitionSwapOps keeps publication churn high enough that the
// aggregate exchange runs many rounds per configuration.
const partitionSwapOps = 64

// Partition measures write throughput and per-shard state residency of
// the server on one registry dataset (default: dbp, the largest) across
// shard counts (default 1, 2, 4). The largest configuration is
// differentially checked against a cold rebuild over the union
// collection; a divergence fails the run.
func Partition(cfg Config, name string, shardCounts []int) ([]PartitionRow, error) {
	if name == "" {
		name = "dbp"
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
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
	rows := make([]PartitionRow, 0, len(shardCounts))
	var m1 int64
	for _, sc := range shardCounts {
		row, err := partitionOne(p, blocks, base, stream, sc, sc == maxShards)
		if err != nil {
			return nil, fmt.Errorf("%s shards=%d: %w", name, sc, err)
		}
		row.Dataset = name
		if sc == 1 {
			m1 = row.MaxResidentBytes
		}
		rows = append(rows, row)
	}
	// Memory scaling vs the 1-shard row.
	if m1 > 0 {
		for i := range rows {
			rows[i].MemVs1 = float64(rows[i].MaxResidentBytes) / float64(m1)
		}
	}
	return rows, nil
}

// partitionOne measures one shard-count configuration.
func partitionOne(p *blast.Pipeline, blocks *blast.Blocks, base *model.Dataset, stream []model.Profile, shards int, verify bool) (PartitionRow, error) {
	ctx := context.Background()
	srv, err := p.ServeBlocks(ctx, blocks, blast.ServerOptions{Shards: shards, SwapOps: partitionSwapOps})
	if err != nil {
		return PartitionRow{}, err
	}
	defer srv.Close()

	t0 := time.Now()
	if err := insertBatches(stream, func(b []model.Profile) error {
		_, err := srv.InsertAll(ctx, b)
		return err
	}); err != nil {
		return PartitionRow{}, err
	}
	if err := srv.Quiesce(ctx); err != nil {
		return PartitionRow{}, err
	}
	elapsed := time.Since(t0)

	row := PartitionRow{
		Shards:       shards,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		BaseProfiles: base.NumProfiles(),
		Streamed:     len(stream),
		PairsMatch:   true,
	}
	if elapsed > 0 {
		row.InsertThroughput = float64(len(stream)) / elapsed.Seconds()
	}
	for _, st := range srv.Stats() {
		row.TotalResidentBytes += st.ResidentBytes
		if st.OwnedRows > row.MaxOwnedRows {
			row.MaxOwnedRows = st.OwnedRows
		}
		if st.ResidentBytes > row.MaxResidentBytes {
			row.MaxResidentBytes = st.ResidentBytes
		}
	}
	if verify {
		cold, err := p.IndexBlocks(ctx, &blast.Blocks{Collection: srv.Blocks().Clone(), Schema: srv.Schema()})
		if err != nil {
			return PartitionRow{}, fmt.Errorf("cold rebuild: %w", err)
		}
		got, err := srv.Pairs(ctx)
		if err != nil {
			return PartitionRow{}, err
		}
		row.PairsMatch = slices.Equal(cold.Pairs(), got)
		if !row.PairsMatch {
			// The experiment doubles as a real-dataset differential check;
			// a divergence must fail the run (and CI), not annotate a row.
			return PartitionRow{}, fmt.Errorf("server diverged from the cold rebuild (%d vs %d pairs)",
				len(got), cold.NumRetained())
		}
	}
	return row, nil
}

// RenderPartition formats the shard-count series.
func RenderPartition(rows []PartitionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "partitioned row ownership across shard counts (write stream)\n")
	fmt.Fprintf(&b, "%-8s %7s %8s %10s %10s %12s %12s %8s %7s\n",
		"dataset", "shards", "streamed", "ins/s", "max rows", "max bytes", "total bytes", "mem/1shd", "match")
	for _, r := range rows {
		mem := "-"
		if r.MemVs1 > 0 {
			mem = fmt.Sprintf("%.2fx", r.MemVs1)
		}
		fmt.Fprintf(&b, "%-8s %7d %8d %10.0f %10d %12d %12d %8s %7v\n",
			r.Dataset, r.Shards, r.Streamed, r.InsertThroughput,
			r.MaxOwnedRows, r.MaxResidentBytes, r.TotalResidentBytes, mem, r.PairsMatch)
	}
	return b.String()
}

// PartitionJSON renders the rows as indented JSON (the CI artifact
// BENCH_partition.json).
func PartitionJSON(rows []PartitionRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
