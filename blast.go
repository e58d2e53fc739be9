// Package blast implements BLAST (Blocking with Loosely-Aware Schema
// Techniques), the holistic loosely schema-aware (meta-)blocking approach
// for Entity Resolution of Simonini, Bergamaschi and Jagadish (PVLDB
// 9(12), 2016).
//
// Given one (dirty ER) or two (clean-clean ER) entity collections, BLAST
// produces a compact list of candidate comparisons in three phases
// (Figure 4 of the paper):
//
//  1. Loose schema information extraction — attribute-match induction
//     (LMI, optionally accelerated with MinHash/LSH banding) partitions
//     attributes by value similarity, and each cluster is scored with the
//     aggregate Shannon entropy of its attributes.
//  2. Loosely schema-aware blocking — Token Blocking with keys
//     disambiguated by attribute cluster, followed by Block Purging and
//     Block Filtering.
//  3. Loosely schema-aware meta-blocking — the blocking graph is weighted
//     with Pearson's chi-squared statistic scaled by the aggregate
//     entropy of the shared keys, then pruned node-centrically with
//     theta_i = M_i/c and the unique edge threshold (theta_u+theta_v)/d.
//
// The package is the stable API surface of this repository; the
// algorithmic building blocks live in internal/ packages (blocking,
// attr, graph, weights, prune, metablocking, ...) and are composed here.
//
// The staged Pipeline is the one entry style: NewPipeline validates the
// Options, and each phase is a context-aware call returning a reusable
// artifact (InduceSchema a Schema, Block a Blocks, MetaBlock a Result).
// Pipeline.Run chains the three; IndexBlocks freezes a Blocks artifact
// into an Index serving per-profile candidate queries online, and
// ServeBlocks starts a Server over one that serves reads while it
// absorbs inserts.
package blast

import (
	"fmt"
	"math"
	"strings"
	"time"

	"blast/internal/attr"
	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/text"
	"blast/internal/weights"
)

// Induction selects the attribute-match induction algorithm of Phase 1.
type Induction int

const (
	// LMI is Loose attribute-Match Induction (paper Algorithm 1),
	// BLAST's default.
	LMI Induction = iota
	// AC is the Attribute Clustering baseline (Papadakis et al.,
	// TKDE'13), compared in Figure 9.
	AC
	// NoInduction disables Phase 1: schema-agnostic Token Blocking with
	// unit entropies (the "T" rows of Tables 4-5).
	NoInduction
)

// String implements fmt.Stringer.
func (i Induction) String() string {
	switch i {
	case LMI:
		return "lmi"
	case AC:
		return "ac"
	case NoInduction:
		return "none"
	default:
		return fmt.Sprintf("Induction(%d)", int(i))
	}
}

// Topology names how the parties of a Server's publications divide the
// index state. There is one: TopologyPartitioned, the zero value. The
// replicated topology — a full writable index per shard — was removed;
// the field remains so that existing callers setting
// TopologyPartitioned keep compiling.
type Topology int

// TopologyPartitioned has each party of a publication own the rows
// hash-owned by it: one writer appends every batch once to its
// collection, and a publication's parties each build, weigh and prune
// only their owned rows' adjacency. Graph-global pruning state (degree
// vectors, weight sums, histogram cuts, top-k marks) is resolved by
// exchanging compact per-party aggregates in deterministic party order,
// so a quiesced server is byte-identical to a cold IndexBlocks.
const TopologyPartitioned Topology = 0

// Validate rejects every topology but TopologyPartitioned.
func (t Topology) Validate() error {
	if t != TopologyPartitioned {
		return fmt.Errorf("blast: Topology(%d): the replicated topology was removed; TopologyPartitioned (the zero value) is the only one", int(t))
	}
	return nil
}

// ServerOptions configures a snapshot-swap Server (see Pipeline.Serve).
// The zero value is valid: one party, default swap cadence.
type ServerOptions struct {
	// Shards is the number of parties every publication is frozen by; 0
	// selects 1. The server has one writer and one block collection at
	// any count: a publication runs Shards goroutines, each building,
	// weighing and pruning the rows of the profiles hashed onto it, and
	// joins their rows into the one published state every read is served
	// from.
	Shards int
	// Topology must be TopologyPartitioned, the zero value.
	Topology Topology
	// SwapOps makes a fresh read snapshot fall due once this many
	// streamed profiles have been applied since the last publication. A
	// due snapshot is published at the newest batch committed at that
	// moment: at once when nothing is queued
	// behind the batch that made it due, and as ONE publication covering
	// the backlog — not one per SwapOps window, each stale before it is
	// swapped in — when admission runs ahead of the writer. The position
	// is fixed when the publication falls due,
	// so a writer that never pauses cannot postpone it, and Quiesce or
	// Close publish at the latest. 0 selects 256; negative disables the
	// op-count trigger, leaving publication to Quiesce and Close.
	SwapOps int

	// Dir, when non-empty, makes the server durable: every admitted
	// InsertAll batch is appended as one record to the server's one
	// write-ahead log, Dir/wal/batches.wal, before ids are returned,
	// whatever the shard count. Published states are persisted on the
	// SnapshotEvery policy, one file each, and ServeBlocks on an existing
	// Dir recovers — a torn tail truncated, every journaled batch
	// replayed once onto the writer, the snapshot at the log's last
	// record adopted or re-exported by the writer — to a state
	// byte-identical to a cold IndexBlocks over seed + replayed inserts,
	// at any shard count or Options.MemoryBudget. The seed Blocks artifact is
	// NOT persisted; reopening requires the same artifact (a manifest
	// records its fingerprint and fails closed on mismatch). A directory
	// of the manifest's version 1, which kept one log per shard, fails
	// closed too: recreate it from the seed artifact. Nothing is spilled
	// under Dir. Empty disables durability entirely.
	Dir string
	// SyncEvery batches the log's fsyncs: one fsync per SyncEvery log
	// records, whatever the shard count. A record is one group: every
	// InsertAll call committed together (see Server.InsertAll). 0
	// selects 1 — every admitted batch is on stable storage before its
	// ids are returned; n > 1 trades the tail of a machine crash (not a
	// process crash: writes are unbuffered) for admission throughput;
	// negative never fsyncs explicitly. Requires Dir.
	SyncEvery int
	// SnapshotEvery persists a published state once at least this many
	// batches were admitted since the last persisted one. A reopen adopts
	// the snapshot at the log's last record and skips the rebuild. 0
	// selects 64; negative disables snapshot persistence (recovery
	// always rebuilds). Requires Dir.
	SnapshotEvery int

	// MaxPendingRequests bounds the InsertAll calls admitted and not yet
	// applied by the writer — queued, committing, or committed and
	// waiting for the writer; a call beyond it fails at once with
	// ErrOverloaded, so a writer behind by the budget (inside a long
	// freeze, say) sheds load. 0 selects 256.
	MaxPendingRequests int
	// MaxPendingBytes bounds the estimated in-memory size of the
	// profiles admitted and not yet applied; a call beyond it fails at
	// once with ErrOverloaded, so a single call larger than the bound is
	// never admitted. 0 selects 16 MiB.
	MaxPendingBytes int64
}

// maxServerShards bounds the party count: row owners are hashed into a
// byte, and every party of a publication is a goroutine with its own
// degree pass over the whole collection, so triple-digit counts are a
// configuration error long before they are a scaling strategy.
const maxServerShards = 256

// Validate checks the server options, mirroring Options.Validate.
func (so ServerOptions) Validate() error {
	if so.Shards < 0 || so.Shards > maxServerShards {
		return fmt.Errorf("blast: Shards = %d outside [0, %d] (0 selects 1)", so.Shards, maxServerShards)
	}
	if err := so.Topology.Validate(); err != nil {
		return err
	}
	if so.MaxPendingRequests < 0 || so.MaxPendingBytes < 0 {
		return fmt.Errorf("blast: MaxPendingRequests/MaxPendingBytes = %d/%d: write-queue bounds must not be negative (0 selects the default)", so.MaxPendingRequests, so.MaxPendingBytes)
	}
	if so.Dir == "" && (so.SyncEvery != 0 || so.SnapshotEvery != 0) {
		return fmt.Errorf("blast: SyncEvery/SnapshotEvery = %d/%d without Dir: durability knobs need a durable directory", so.SyncEvery, so.SnapshotEvery)
	}
	return nil
}

// WithDefaults returns a copy of the options with every defaultable
// field resolved to its effective value, so callers (cmd/blastserve,
// tests, docs) read the policy the Server will actually run instead of
// re-deriving the zero-value mappings. Resolution: Shards 0 -> 1;
// SwapOps 0 -> 256; SyncEvery 0 -> 1 and SnapshotEvery 0 -> 64 when Dir
// is set (they are unused otherwise and left alone); MaxPendingRequests
// 0 -> 256 and MaxPendingBytes 0 -> 16 MiB. Any other negative knob
// means "disabled" and normalizes to -1. WithDefaults is idempotent and
// is the single place the defaulting lives; Validate accepts its
// output whenever it accepts the input.
func (so ServerOptions) WithDefaults() ServerOptions {
	if so.Shards == 0 {
		so.Shards = 1
	}
	norm := func(v, def int) int {
		switch {
		case v == 0:
			return def
		case v < 0:
			return -1
		default:
			return v
		}
	}
	so.SwapOps = norm(so.SwapOps, 256)
	if so.MaxPendingRequests == 0 {
		so.MaxPendingRequests = 256
	}
	if so.MaxPendingBytes == 0 {
		so.MaxPendingBytes = 16 << 20
	}
	if so.Dir != "" {
		so.SyncEvery = norm(so.SyncEvery, 1)
		so.SnapshotEvery = norm(so.SnapshotEvery, 64)
	}
	return so
}

// shards resolves the effective shard count.
func (so ServerOptions) shards() int { return so.WithDefaults().Shards }

// swapOps resolves the effective op-count swap trigger (0 = disabled).
func (so ServerOptions) swapOps() int {
	if v := so.WithDefaults().SwapOps; v > 0 {
		return v
	}
	return 0
}

// walSyncEvery resolves the effective WAL fsync policy (0 = never).
func (so ServerOptions) walSyncEvery() int {
	if v := so.WithDefaults().SyncEvery; v > 0 {
		return v
	}
	return 0
}

// snapshotEvery resolves the effective snapshot persistence cadence in
// batches (0 = disabled).
func (so ServerOptions) snapshotEvery() int64 {
	if v := so.WithDefaults().SnapshotEvery; v > 0 {
		return int64(v)
	}
	return 0
}

// LSHOptions configures the optional MinHash/banding acceleration of
// attribute-match induction (Section 3.1.2). Rows*Bands hash functions
// are used; the implied Jaccard threshold is (1/Bands)^(1/Rows).
type LSHOptions struct {
	Rows  int
	Bands int
	Seed  uint64 // seeds the MinHash functions
}

// Options configures the full pipeline. The zero value is NOT valid; use
// DefaultOptions as the base.
type Options struct {
	// Transform is the value transformation function tau (default:
	// lowercase alphanumeric tokenizer).
	Transform text.Transform

	// Induction selects LMI, AC or no attribute-match induction.
	Induction Induction
	// TFIDF switches attribute comparison from binary/Jaccard to
	// TF-IDF/cosine (Section 2.1's alternative representation).
	TFIDF bool
	// Alpha is the LMI candidate factor (default 0.9).
	Alpha float64
	// Glue keeps unclustered attributes in a glue cluster (default true).
	Glue bool
	// LSH, when non-nil, enables the LSH pre-processing step.
	LSH *LSHOptions

	// PurgeRatio drops blocks containing more than this fraction of all
	// profiles (default 0.5; Block Purging).
	PurgeRatio float64
	// FilterRatio keeps this fraction of each profile's most important
	// blocks (default 0.8; Block Filtering).
	FilterRatio float64

	// Scheme is the edge weighting of the meta-blocking phase (default
	// chi2 * h, the BLAST weighting).
	Scheme weights.Scheme
	// Pruning is the pruning algorithm (default BlastWNP).
	Pruning metablocking.Pruning
	// C is the local threshold divisor theta_i = M_i/C (default 2;
	// higher C retains more comparisons — higher PC, lower PQ).
	C float64
	// D combines the two local thresholds: retain iff
	// w >= (theta_u+theta_v)/D (default 2).
	D float64
	// K overrides the cardinality of CEP/CNP pruning (<= 0: defaults).
	K int

	// Workers parallelizes attribute-match induction (the exhaustive
	// row kernel; attribute rows are independent), Phase 2 block
	// building (contiguous profile ranges, merged in key order),
	// blocking-graph construction, weighting AND the streaming pruning
	// passes (thresholds, top-k cuts, retention — everywhere a CSR is
	// pruned: batch runs, IndexBlocks, an index's re-freeze after
	// inserts, every party of a server's publications): 0 uses one
	// worker per CPU, 1 forces serial execution, >1 uses exactly that
	// many goroutines. Results are byte-identical at every count —
	// induction, block building, graph construction and weighting
	// compute each row, profile or entry on one worker, and pruning runs
	// over fixed node chunks with float partials combined in chunk
	// order, so parallelism never moves a ulp.
	Workers int

	// MemoryBudget, when positive, makes the cold builds, MetaBlock and
	// IndexBlocks (BuildIndex), spill the blocking graph's adjacency to
	// segment files once its resident entries exceed this many bytes,
	// and stream them back page by page; 1 spills from the first page,
	// and a budget larger than the graph never spills. 0 (the default)
	// keeps the graph resident; a negative budget is rejected. The
	// budget covers the adjacency entry streams only — offsets, block
	// counts and the fixed pipeline state are O(profiles) and excluded,
	// as is what the build is for: the retained pairs of a run (8 bytes
	// each) or the frozen rows of an index (24 bytes a retained pair),
	// which are resident by definition. Output is byte-identical at
	// every budget. It reaches no writer export: an Index's re-freeze
	// after inserts and every state of a Server build their graph
	// resident.
	MemoryBudget int64
	// SpillDir is the directory the segment files of a spilled cold
	// build are created under (a fresh subdirectory per build, removed
	// before the build returns). Empty selects the OS temp dir. It
	// requires a positive MemoryBudget, and a Server, which never
	// spills, ignores it.
	SpillDir string

	// Progress, when non-nil, observes pipeline execution: it is invoked
	// synchronously as each phase or sub-stage completes ("induce",
	// "block", "graph", "weight", "prune", "index") with the stage's
	// wall-clock duration. It must be fast and must not retain pipeline
	// structures.
	Progress Progress
}

// Progress observes pipeline execution. See Options.Progress.
type Progress func(phase string, d time.Duration)

// Validate checks the option values that the pipeline cannot interpret,
// returning a descriptive error for the first violation found. It is
// called by NewPipeline; DefaultOptions always validates.
func (o Options) Validate() error {
	switch o.Induction {
	case LMI, AC, NoInduction:
	default:
		return fmt.Errorf("blast: unknown induction %d", int(o.Induction))
	}
	if o.Induction != NoInduction {
		// Alpha and LSH only drive attribute-match induction; they are
		// checked only when used.
		if !(o.Alpha > 0 && o.Alpha <= 1) {
			return fmt.Errorf("blast: Alpha = %v outside (0, 1]: the LMI candidate factor is a fraction of the per-attribute best similarity", o.Alpha)
		}
		if o.LSH != nil && (o.LSH.Rows < 1 || o.LSH.Bands < 1) {
			return fmt.Errorf("blast: LSH rows/bands = %d/%d: both must be >= 1", o.LSH.Rows, o.LSH.Bands)
		}
	}
	// The range checks are written so that NaN fails them too.
	if !(o.PurgeRatio > 0 && o.PurgeRatio <= 1) {
		return fmt.Errorf("blast: PurgeRatio = %v outside (0, 1]: it is the maximum fraction of all profiles a block may hold (1 disables purging)", o.PurgeRatio)
	}
	if !(o.FilterRatio > 0 && o.FilterRatio <= 1) {
		return fmt.Errorf("blast: FilterRatio = %v outside (0, 1]: it is the fraction of each profile's blocks to keep (1 disables filtering)", o.FilterRatio)
	}
	switch o.Scheme.Kind {
	case weights.CBS, weights.ECBS, weights.ARCS, weights.JS, weights.EJS, weights.ChiSquared:
	default:
		return fmt.Errorf("blast: Scheme.Kind = %d: unknown weighting scheme (CBS, ECBS, ARCS, JS, EJS or ChiSquared)", int(o.Scheme.Kind))
	}
	switch o.Pruning {
	case metablocking.WEP, metablocking.CEP, metablocking.WNP1, metablocking.WNP2,
		metablocking.CNP1, metablocking.CNP2, metablocking.BlastWNP:
	default:
		return fmt.Errorf("blast: unknown pruning %d", int(o.Pruning))
	}
	if !(o.C > 0) || math.IsInf(o.C, 1) {
		return fmt.Errorf("blast: C = %v must be finite and > 0: it divides the per-node maximum weight (theta_i = M_i/C)", o.C)
	}
	if !(o.D > 0) || math.IsInf(o.D, 1) {
		return fmt.Errorf("blast: D = %v must be finite and > 0: it divides the combined threshold (theta_u+theta_v)/D", o.D)
	}
	if o.K < -1 {
		return fmt.Errorf("blast: K = %d must be >= -1 (<= 0 selects the scheme defaults)", o.K)
	}
	if o.Workers < 0 {
		return fmt.Errorf("blast: Workers = %d must be >= 0 (0 selects one worker per CPU)", o.Workers)
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("blast: MemoryBudget = %d must be >= 0 (0 keeps the graph resident)", o.MemoryBudget)
	}
	if o.MemoryBudget == 0 && o.SpillDir != "" {
		return fmt.Errorf("blast: SpillDir = %q without a positive MemoryBudget: only a spilled build writes segment files", o.SpillDir)
	}
	return nil
}

// spillOptions maps the spill knobs onto the graph builder's spill
// configuration, nil when the graph stays resident.
func (o *Options) spillOptions() *graph.SpillOptions {
	if o.MemoryBudget == 0 {
		return nil
	}
	return &graph.SpillOptions{Dir: o.SpillDir, MemoryBudget: o.MemoryBudget}
}

// progress reports a completed phase to the Progress observer, if any.
func (o *Options) progress(phase string, d time.Duration) {
	if o.Progress != nil {
		o.Progress(phase, d)
	}
}

// DefaultOptions returns the paper's configuration of BLAST.
func DefaultOptions() Options {
	return Options{
		Transform:   text.NewTokenizer(),
		Induction:   LMI,
		Alpha:       0.9,
		Glue:        true,
		PurgeRatio:  0.5,
		FilterRatio: 0.8,
		Scheme:      weights.Blast(),
		Pruning:     metablocking.BlastWNP,
		C:           2,
		D:           2,
	}
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Pairs is the restructured block collection: one comparison per
	// retained edge, in canonical order.
	Pairs []model.IDPair
	// Partitioning is the loose schema information of Phase 1 (nil when
	// induction is disabled).
	Partitioning *attr.Partitioning
	// Blocks is the cleaned block collection Phase 3 consumed.
	Blocks *blocking.Collection
	// Quality measures Pairs against the dataset's ground truth (zero
	// when the dataset has no truth).
	Quality metrics.Quality

	// InductionTime, BlockTime and MetaTime decompose the overhead.
	InductionTime time.Duration
	BlockTime     time.Duration
	MetaTime      time.Duration
}

// Overhead is the total pipeline overhead t_o.
func (r *Result) Overhead() time.Duration {
	return r.InductionTime + r.BlockTime + r.MetaTime
}

// LooseSchemaReport renders the discovered attribute partitioning as a
// human-readable listing (one cluster per line with its aggregate
// entropy), or a note when induction was disabled.
func (r *Result) LooseSchemaReport() string {
	if r.Partitioning == nil {
		return "no attribute-match induction (schema-agnostic run)\n"
	}
	var b strings.Builder
	for _, c := range r.Partitioning.Clusters {
		if len(c.Members) == 0 {
			continue
		}
		label := fmt.Sprintf("cluster %d", c.ID)
		if c.ID == attr.GlueClusterID {
			label = "glue"
		}
		fmt.Fprintf(&b, "%-10s H=%.3f ", label, c.Entropy)
		for i, m := range c.Members {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "E%d/%s", m.Source+1, m.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
