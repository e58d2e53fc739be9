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
// Two entry styles are provided. Run (with the CleanClean and Dirty
// wrappers) executes all three phases in one call. The staged Pipeline
// exposes each phase as a context-aware call returning a reusable
// artifact (Schema, Blocks, Result), and BuildIndex freezes a run into
// an Index serving per-profile candidate queries online; both styles
// produce byte-identical retained pairs.
package blast

import (
	"context"
	"fmt"
	"math"
	"strconv"
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

// Storage selects where the blocking graph's adjacency entries live
// while a run or index build is in flight. It is a build-time choice
// and nothing more: a run returns pairs, an index build freezes the
// rows of what pruning retained into RAM, and either way the graph —
// and any segment file it was spilled to — is gone when the call
// returns. What is served never depends on it.
type Storage int

const (
	// StorageMemory (the zero value) keeps the full CSR adjacency
	// resident in RAM — the original behavior and the right choice
	// whenever the graph fits.
	StorageMemory Storage = iota
	// StorageFile spills the adjacency to CRC-checked segment files once
	// the build's resident footprint exceeds Options.MemoryBudget; the
	// weighting and pruning passes then stream the pages back through
	// per-worker cursors, and the segments are deleted before MetaBlock
	// or IndexBlocks returns. Retained pairs and served candidates are
	// byte-identical to StorageMemory; only the build's peak memory (and
	// speed) differ.
	StorageFile
)

// String implements fmt.Stringer.
func (s Storage) String() string {
	switch s {
	case StorageMemory:
		return "memory"
	case StorageFile:
		return "file"
	default:
		return fmt.Sprintf("Storage(%d)", int(s))
	}
}

// ParseStorage maps a storage name ("memory", "file" — the String()
// forms) back to the enum value.
func ParseStorage(s string) (Storage, error) {
	for _, st := range []Storage{StorageMemory, StorageFile} {
		if s == st.String() {
			return st, nil
		}
	}
	return 0, fmt.Errorf("blast: unknown storage %q: valid names are %q and %q",
		s, StorageMemory, StorageFile)
}

// Validate rejects unknown storage values with a descriptive error.
func (s Storage) Validate() error {
	switch s {
	case StorageMemory, StorageFile:
		return nil
	default:
		return fmt.Errorf("blast: unknown %v: valid storages are StorageMemory (0, resident adjacency) and StorageFile (1, spill past MemoryBudget)", s)
	}
}

// Topology names how a Server's shards divide the index state. There is
// one: TopologyPartitioned, the zero value. The replicated topology —
// a full writable index per shard — was removed; the field remains so
// that existing callers setting TopologyPartitioned keep compiling.
type Topology int

// TopologyPartitioned has each shard own the rows hash-owned by it:
// every shard appends every batch to its clone of the block collection,
// builds only its owned rows' adjacency, and serves only their retained
// entries. Graph-global pruning state (degree vectors, weight sums,
// histogram cuts, top-k marks) is resolved at publish time by
// exchanging compact per-shard aggregates in deterministic shard order,
// so a quiesced server is byte-identical to a cold IndexBlocks.
const TopologyPartitioned Topology = 0

// Validate rejects every topology but TopologyPartitioned.
func (t Topology) Validate() error {
	if t != TopologyPartitioned {
		return fmt.Errorf("blast: Topology(%d): the replicated topology was removed; TopologyPartitioned (the zero value) is the only one", int(t))
	}
	return nil
}

// ServerOptions configures a sharded snapshot-swap Server (see
// Pipeline.Serve). The zero value is valid: one shard, default swap
// cadence.
type ServerOptions struct {
	// Shards is the number of shard workers; 0 selects 1. Each shard
	// owns the rows of the profiles hash-sharded to it: it builds their
	// graph state on its write path and serves their reads from an
	// immutable published snapshot. Memory does not divide across the
	// shards: every shard clones the block collection and holds
	// full-length per-profile arrays (row offsets, thresholds), so more
	// shards cost more resident memory, not less.
	Shards int
	// Topology must be TopologyPartitioned, the zero value.
	Topology Topology
	// SwapOps makes a fresh read snapshot fall due once this many
	// streamed profiles have been applied on a shard since its last
	// publication. A due snapshot is published at the newest batch every
	// shard of the server had already received at that moment: at once
	// when nothing is queued behind the batch that made it due, and as
	// ONE publication covering the backlog — not one per SwapOps window,
	// each stale before it is swapped in — when admission runs ahead of
	// the shards. The position is fixed when the publication falls due,
	// so a writer that never pauses cannot postpone it, and Quiesce or
	// Close publish at the latest. 0 selects 256; negative disables the
	// op-count trigger, leaving publication to Quiesce and Close.
	SwapOps int

	// Dir, when non-empty, makes the server durable: every admitted
	// InsertAll batch is appended as one record to the server's one
	// write-ahead log, Dir/wal/batches.wal, before ids are returned,
	// whatever the shard count. Published snapshots are persisted on the
	// SnapshotEvery policy, and ServeBlocks on an existing Dir recovers —
	// a torn tail truncated, every journaled batch replayed onto every
	// shard, the snapshots at the log's last record adopted or rebuilt —
	// to a state byte-identical to a cold IndexBlocks over seed +
	// replayed inserts. The seed Blocks artifact is NOT persisted;
	// reopening requires the same artifact (a manifest records its
	// fingerprint and fails closed on mismatch). A directory of the
	// manifest's version 1, which kept one log per shard, fails closed
	// too: recreate it from the seed artifact. Empty disables durability
	// entirely.
	Dir string
	// SyncEvery batches the log's fsyncs: one fsync per SyncEvery
	// admitted batches, whatever the shard count. 0 selects 1 — every
	// admitted batch is on stable storage before its ids are returned; n > 1 trades the tail of a machine
	// crash (not a process crash: writes are unbuffered) for admission
	// throughput; negative never fsyncs explicitly. Requires Dir.
	SyncEvery int
	// SnapshotEvery persists a published snapshot once at least this
	// many batches were admitted since the last persisted one. A reopen
	// adopts the snapshots at the log's last record and skips the
	// rebuild. 0
	// selects 64; negative disables snapshot persistence (recovery
	// always rebuilds). Requires Dir.
	SnapshotEvery int
}

// maxServerShards bounds the shard count: shard owners are hashed into
// a byte, and every shard holds a clone of the block collection, so
// triple-digit counts are a configuration error long before they are a
// scaling strategy.
const maxServerShards = 256

// Validate checks the server options, mirroring Options.Validate.
func (so ServerOptions) Validate() error {
	if so.Shards < 0 || so.Shards > maxServerShards {
		return fmt.Errorf("blast: Shards = %d outside [0, %d] (0 selects 1)", so.Shards, maxServerShards)
	}
	if err := so.Topology.Validate(); err != nil {
		return err
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
// is set (they are unused otherwise and left alone). Any negative knob
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
	Seed  uint64
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

	// Seed drives the deterministic randomness (LSH).
	Seed uint64
	// Workers parallelizes attribute-match induction (the exhaustive
	// row kernel; attribute rows are independent), Phase 2 block
	// building (contiguous profile ranges, merged in key order),
	// blocking-graph construction, weighting AND the streaming pruning
	// passes (thresholds, top-k cuts, retention — everywhere a CSR is
	// pruned: batch runs, IndexBlocks, an index's re-freeze after
	// inserts, the sharded server's exports): 0 uses one worker
	// per CPU, 1 forces serial execution, >1 uses exactly that many
	// goroutines. Results are byte-identical at every count — induction,
	// block building, graph construction and weighting compute each row,
	// profile or entry on one worker, and pruning runs over fixed node
	// chunks with float partials combined in chunk order, so parallelism
	// never moves a ulp.
	Workers int

	// Storage selects where the blocking graph's adjacency lives during
	// meta-blocking and index builds (MetaBlock, IndexBlocks, the build
	// that seeds a Server's shards): StorageMemory (default) keeps it
	// resident, StorageFile spills it to segment files past MemoryBudget
	// and streams them back page by page. Byte-identical output either
	// way. It does not reach an Index's re-freeze after inserts or a
	// shard's export, which build their graph resident.
	Storage Storage
	// MemoryBudget bounds (in bytes) the resident footprint of the
	// adjacency entries a StorageFile build may accumulate before
	// spilling: <= 0 spills from the first entry, and a budget larger
	// than the graph never spills at all (the build simply stays
	// resident). The budget covers the adjacency entry streams only —
	// offsets, block counts and the fixed pipeline state are O(profiles)
	// and excluded, as is what the build is for: the retained pairs of a
	// run (8 bytes each) or the frozen rows of an index (24 bytes a
	// retained pair), which are resident by definition. Ignored under
	// StorageMemory.
	MemoryBudget int64
	// SpillDir is the directory StorageFile segment files are created
	// under (a fresh subdirectory per build, removed before the build
	// returns). Empty selects the OS temp dir — or, on a durable Server,
	// a "spill" directory next to the WAL so segments live on the same
	// filesystem as the rest of the state. Ignored under StorageMemory.
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
// called by NewPipeline and Run; DefaultOptions always validates.
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
	if err := o.Storage.Validate(); err != nil {
		return err
	}
	if o.Storage != StorageFile && (o.MemoryBudget != 0 || o.SpillDir != "") {
		return fmt.Errorf("blast: MemoryBudget/SpillDir = %d/%q without StorageFile: the spill knobs need file storage", o.MemoryBudget, o.SpillDir)
	}
	return nil
}

// spillOptions maps the public storage knobs onto the graph builder's
// spill configuration, nil when storage is resident.
func (o *Options) spillOptions() *graph.SpillOptions {
	if o.Storage != StorageFile {
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
		Seed:        1,
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
	// BlockQuality measures Blocks before meta-blocking (the Table 3
	// baseline view).
	BlockQuality metrics.Quality

	// InductionTime, BlockTime and MetaTime decompose the overhead.
	InductionTime time.Duration
	BlockTime     time.Duration
	MetaTime      time.Duration
}

// Overhead is the total pipeline overhead t_o.
func (r *Result) Overhead() time.Duration {
	return r.InductionTime + r.BlockTime + r.MetaTime
}

// RestructuredBlocks materializes the meta-blocking output in block form:
// each retained comparison becomes a block of two profiles (the paper's
// "each pair of nodes connected by an edge forms a new block"). Useful
// for feeding downstream tools that consume block collections.
func (r *Result) RestructuredBlocks() *blocking.Collection {
	blocks := make([]blocking.Block, 0, len(r.Pairs))
	for i, p := range r.Pairs {
		b := blocking.Block{Key: mbKey(i), Entropy: 1, P1: []int32{p.U, p.V}}
		if r.Blocks.Kind == model.CleanClean {
			b.P1, b.P2 = b.P1[:1], b.P1[1:]
		}
		blocks = append(blocks, b)
	}
	return blocking.FromBlocks(r.Blocks.Kind, r.Blocks.NumProfiles, r.Blocks.Split, blocks)
}

// mbKey renders the restructured-block key "mb-%08d" without going
// through fmt: one string allocation per key instead of Sprintf's
// argument boxing and formatter state, which dominates the restructuring
// loop on large outputs (see BenchmarkRestructuredKey).
func mbKey(i int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	buf := make([]byte, 0, 3+8)
	buf = append(buf, "mb-"...)
	for pad := 8 - len(d); pad > 0; pad-- {
		buf = append(buf, '0')
	}
	buf = append(buf, d...)
	return string(buf)
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

// Run executes the BLAST pipeline on a dataset. It is a thin wrapper
// over the staged Pipeline API — NewPipeline followed by Pipeline.Run
// under the background context — and produces byte-identical Pairs.
// Use a Pipeline directly to reuse phase artifacts (one *Schema across a
// parameter sweep), cancel long runs, or serve per-profile candidate
// queries through an Index.
func Run(ds *model.Dataset, opt Options) (*Result, error) {
	p, err := NewPipeline(opt)
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background(), ds)
}

// CleanClean is a convenience wrapper building the dataset from two
// collections and running the default pipeline. truth may be nil (no
// quality is computed then).
func CleanClean(e1, e2 *model.Collection, truth *model.GroundTruth, opt Options) (*Result, error) {
	if truth == nil {
		truth = model.NewGroundTruth()
	}
	ds := &model.Dataset{Name: "clean-clean", Kind: model.CleanClean, E1: e1, E2: e2, Truth: truth}
	return Run(ds, opt)
}

// Dirty is the single-collection counterpart of CleanClean.
func Dirty(e *model.Collection, truth *model.GroundTruth, opt Options) (*Result, error) {
	if truth == nil {
		truth = model.NewGroundTruth()
	}
	ds := &model.Dataset{Name: "dirty", Kind: model.Dirty, E1: e, Truth: truth}
	return Run(ds, opt)
}
