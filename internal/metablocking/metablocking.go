// Package metablocking orchestrates graph-based meta-blocking: it builds
// the blocking graph of a block collection, applies a weighting scheme,
// prunes edges, and materializes the restructured block collection (each
// retained edge becomes a block of two profiles, so redundant comparisons
// are impossible by construction — Definition 2 of the paper).
//
// Two execution engines are available. EdgeList materializes the full
// edge list (graph.Build) before weighting and pruning; NodeCentric
// streams over a CSR adjacency (graph.BuildCSR) and never allocates a
// global edge accumulator, which keeps peak memory proportional to the
// adjacency itself on large collections. Both produce identical Pairs.
package metablocking

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/weights"
)

// Pruning enumerates the pruning algorithms.
type Pruning int

const (
	// WEP discards edges below the global mean weight.
	WEP Pruning = iota
	// CEP keeps the globally top-K edges.
	CEP
	// WNP1 is redefined weight node pruning (either endpoint).
	WNP1
	// WNP2 is reciprocal weight node pruning (both endpoints).
	WNP2
	// CNP1 is redefined cardinality node pruning.
	CNP1
	// CNP2 is reciprocal cardinality node pruning.
	CNP2
	// BlastWNP is the paper's pruning: theta_i = M_i/c, edge threshold
	// (theta_u + theta_v)/d.
	BlastWNP
)

// String implements fmt.Stringer.
func (p Pruning) String() string {
	switch p {
	case WEP:
		return "wep"
	case CEP:
		return "cep"
	case WNP1:
		return "wnp1"
	case WNP2:
		return "wnp2"
	case CNP1:
		return "cnp1"
	case CNP2:
		return "cnp2"
	case BlastWNP:
		return "blast-wnp"
	default:
		return fmt.Sprintf("Pruning(%d)", int(p))
	}
}

// NodeLocal reports whether the scheme's retention decision for an edge
// depends only on the edge's weight and its two endpoints' node-local
// thresholds (theta_i), with no collection-size-derived budget: BlastWNP
// and the two WNP variants. For these schemes an insertion re-evaluates
// only the runs whose weights or thresholds actually changed; the global
// and cardinality schemes (WEP, CEP, CNP — whose default budgets shift
// with every profile) require a full re-evaluation instead.
func (p Pruning) NodeLocal() bool {
	switch p {
	case WNP1, WNP2, BlastWNP:
		return true
	default:
		return false
	}
}

// Engine selects the blocking-graph execution strategy of Run.
type Engine int

const (
	// EdgeList materializes the deduplicated edge list before weighting
	// and pruning — the default engine, required by RunOnGraph and by
	// consumers that inspect Result.Graph.
	EdgeList Engine = iota
	// NodeCentric builds a CSR adjacency per node from the block index
	// and streams the pruning schemes over it in two passes (thresholds,
	// then retention). No global edge map or edge slice is ever
	// allocated; Result.Graph is nil and Result.CSR carries the
	// adjacency. Retained pairs are identical to EdgeList.
	NodeCentric
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EdgeList:
		return "edge-list"
	case NodeCentric:
		return "node-centric"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Config selects the weighting scheme and pruning algorithm.
type Config struct {
	// Scheme is the edge weighting (default: BLAST chi2*h).
	Scheme weights.Scheme
	// Pruning is the pruning algorithm (default BlastWNP).
	Pruning Pruning
	// Engine selects the execution strategy (default EdgeList).
	Engine Engine
	// C is BLAST's local threshold divisor theta_i = M_i / C (default 2).
	C float64
	// D is BLAST's threshold combiner (theta_u + theta_v) / D (default 2).
	D float64
	// K overrides the cardinality of CEP/CNP; <= 0 uses their defaults.
	K int
	// Workers parallelizes blocking-graph construction and, on the
	// NodeCentric path, the streaming pruning passes (see PruneCSR): 0
	// uses one worker per CPU (GOMAXPROCS), 1 runs serially, >1 uses
	// exactly that many goroutines. Output is byte-identical either way.
	// For the EdgeList engine the automatic default only engages on
	// collections with at least ~4M aggregate comparisons: its sharded
	// builder makes every worker scan every pair, so parallelism below
	// that scale multiplies CPU for little wall-clock gain (an explicit
	// Workers > 1 is always honored). The NodeCentric builder partitions
	// work without duplication and parallelizes at any scale, as do the
	// pruning passes.
	Workers int
	// OnStage, when non-nil, is invoked synchronously as each internal
	// stage of a run completes ("graph", "weight", "prune") with the
	// stage's wall-clock duration. It must be fast and must not retain
	// the run's structures.
	OnStage func(stage string, d time.Duration)
	// Spill, when non-nil, selects the beyond-RAM NodeCentric path: the
	// blocking graph is built through graph.BuildCSRSpillCtx, spilling
	// its adjacency to segment files under Spill.Dir once the resident
	// footprint exceeds Spill.MemoryBudget. The retained pairs are
	// byte-identical to the resident build; the Result carries no CSR
	// (the spilled graph is closed, its segments deleted). Only the
	// NodeCentric engine supports spilling.
	Spill *graph.SpillOptions
}

// stage reports a completed stage to the OnStage observer, if any.
func (c *Config) stage(name string, d time.Duration) {
	if c.OnStage != nil {
		c.OnStage(name, d)
	}
}

// DefaultConfig returns BLAST's meta-blocking configuration.
func DefaultConfig() Config {
	return Config{Scheme: weights.Blast(), Pruning: BlastWNP, C: 2, D: 2}
}

// resolveWorkers maps the Config.Workers contract to a concrete worker
// count: 0 (or negative) means one worker per CPU.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// autoParallelMinComparisons gates the EdgeList engine's automatic
// (Workers == 0) parallelism: graph.BuildParallel's sharding has every
// worker enumerate all ||B|| pairs, so below this aggregate cardinality
// the duplicated scanning outweighs the shared map work it divides (the
// builder's own guidance is "tens of millions").
const autoParallelMinComparisons = 4 << 20

// Result is the outcome of a meta-blocking run.
type Result struct {
	// Pairs are the retained comparisons in canonical order; each is a
	// block of two profiles in the restructured collection.
	Pairs []model.IDPair
	// Graph is the weighted blocking graph (weights as of the run). It
	// is nil for NodeCentric runs, which never materialize an edge list;
	// see CSR instead.
	Graph *graph.Graph
	// CSR is the node-centric adjacency of a NodeCentric run (nil for
	// EdgeList runs). Its co-occurrence stat arrays are released after
	// weighting; Weights remain valid.
	CSR *graph.CSR
	// Workers is the resolved worker count requested of the graph
	// builder (0 and negatives resolve to GOMAXPROCS). The builders may
	// still fall back to a serial build on collections too small to
	// shard; RunOnGraph, which builds no graph, leaves it 0.
	Workers int
	// GraphTime, WeightTime and PruneTime decompose the overhead time to.
	GraphTime  time.Duration
	WeightTime time.Duration
	PruneTime  time.Duration
}

// Overhead returns the total meta-blocking overhead time (the paper's
// t_o, excluding the underlying blocking).
func (r *Result) Overhead() time.Duration {
	return r.GraphTime + r.WeightTime + r.PruneTime
}

// Comparisons returns the aggregate cardinality of the restructured
// collection, which equals the number of retained pairs.
func (r *Result) Comparisons() int64 { return int64(len(r.Pairs)) }

// PairSet returns the retained pairs keyed by IDPair.Key.
func (r *Result) PairSet() map[uint64]struct{} {
	set := make(map[uint64]struct{}, len(r.Pairs))
	for _, p := range r.Pairs {
		set[p.Key()] = struct{}{}
	}
	return set
}

// pruneGraph dispatches the configured pruning over an edge-list graph,
// returning the indexes of the retained edges.
func pruneGraph(g *graph.Graph, cfg Config) []int {
	switch cfg.Pruning {
	case WEP:
		return prune.WEP(g)
	case CEP:
		return prune.CEP(g, cfg.K)
	case WNP1:
		return prune.WNP(g, prune.Redefined)
	case WNP2:
		return prune.WNP(g, prune.Reciprocal)
	case CNP1:
		return prune.CNP(g, cfg.K, prune.Redefined)
	case CNP2:
		return prune.CNP(g, cfg.K, prune.Reciprocal)
	case BlastWNP:
		return prune.BlastWNP(g, cfg.C, cfg.D)
	default:
		panic(fmt.Sprintf("metablocking: unknown pruning %d", int(cfg.Pruning)))
	}
}

// PruneCSR dispatches the configured pruning over a weighted CSR graph,
// emitting the retained pairs directly in canonical order. It is the
// streaming counterpart of the edge-list pruning dispatch and is exported
// for consumers (the candidate-serving index) that weight a CSR
// themselves and only need the retention decision. Cfg.Workers selects
// the pruning parallelism (0 = GOMAXPROCS, 1 = serial); the retained
// pairs are byte-identical at every worker count. Cancellation is
// observed at the edge-segment granularity of the streaming schemes.
func PruneCSR(ctx context.Context, g *graph.CSR, cfg Config) ([]model.IDPair, error) {
	workers := cfg.Workers
	switch cfg.Pruning {
	case WEP:
		return prune.WEPStream(ctx, g, workers)
	case CEP:
		return prune.CEPStream(ctx, g, cfg.K, workers)
	case WNP1:
		return prune.WNPStream(ctx, g, prune.Redefined, workers)
	case WNP2:
		return prune.WNPStream(ctx, g, prune.Reciprocal, workers)
	case CNP1:
		return prune.CNPStream(ctx, g, cfg.K, prune.Redefined, workers)
	case CNP2:
		return prune.CNPStream(ctx, g, cfg.K, prune.Reciprocal, workers)
	case BlastWNP:
		return prune.BlastWNPStream(ctx, g, cfg.C, cfg.D, workers)
	default:
		panic(fmt.Sprintf("metablocking: unknown pruning %d", int(cfg.Pruning)))
	}
}

// Run executes meta-blocking over the block collection.
func Run(c *blocking.Collection, cfg Config) *Result {
	res, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		// The background context never cancels and cancellation is the
		// only error source of the staged path.
		panic(fmt.Sprintf("metablocking: unexpected error without cancellation: %v", err))
	}
	return res
}

// RunCtx is Run with cooperative cancellation: graph construction polls
// ctx at worker-chunk granularity, pruning at node-chunk granularity, and
// the run returns ctx.Err() at the first stage boundary (or chunk) that
// observes cancellation. The retained pairs are identical to Run's.
func RunCtx(ctx context.Context, c *blocking.Collection, cfg Config) (*Result, error) {
	switch cfg.Engine {
	case EdgeList:
		if cfg.Spill != nil {
			panic("metablocking: Spill requires the NodeCentric engine")
		}
		// fall through to the edge-list path below
	case NodeCentric:
		return runNodeCentric(ctx, c, cfg)
	default:
		panic(fmt.Sprintf("metablocking: unknown engine %d", int(cfg.Engine)))
	}
	workers := resolveWorkers(cfg.Workers)
	if cfg.Workers <= 0 && workers > 1 && c.AggregateCardinality() < autoParallelMinComparisons {
		workers = 1 // auto-parallelism not worth W x the pair scanning here
	}
	t0 := telemetryNow()
	var g *graph.Graph
	var err error
	if workers > 1 {
		g, err = graph.BuildParallelCtx(ctx, c, workers)
	} else {
		g, err = graph.BuildCtx(ctx, c)
	}
	if err != nil {
		return nil, err
	}
	t1 := telemetryNow()
	cfg.stage("graph", t1.Sub(t0))
	cfg.Scheme.Apply(g)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t2 := telemetryNow()
	cfg.stage("weight", t2.Sub(t1))
	retained := pruneGraph(g, cfg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t3 := telemetryNow()
	cfg.stage("prune", t3.Sub(t2))

	pairs := make([]model.IDPair, len(retained))
	for i, idx := range retained {
		pairs[i] = g.Edges[idx].Pair()
	}
	return &Result{
		Pairs:      pairs,
		Graph:      g,
		Workers:    workers,
		GraphTime:  t1.Sub(t0),
		WeightTime: t2.Sub(t1),
		PruneTime:  t3.Sub(t2),
	}, nil
}

// runNodeCentric is the streaming path of RunCtx: CSR construction,
// per-adjacency weighting, and two-pass pruning, with no edge list.
func runNodeCentric(ctx context.Context, c *blocking.Collection, cfg Config) (*Result, error) {
	workers := resolveWorkers(cfg.Workers)
	t0 := telemetryNow()
	var g *graph.CSR
	var err error
	if cfg.Spill != nil {
		g, err = graph.BuildCSRSpillCtx(ctx, c, *cfg.Spill)
	} else {
		g, err = graph.BuildCSRParallelCtx(ctx, c, workers)
	}
	if err != nil {
		return nil, err
	}
	// A spilled graph is temporary to the run: its segments are deleted
	// on every exit path, and the Result carries no CSR.
	spilled := g.Spilled()
	if spilled {
		defer g.Close()
	}
	t1 := telemetryNow()
	cfg.stage("graph", t1.Sub(t0))
	if err := cfg.Scheme.ApplyCSRCtx(ctx, g, workers); err != nil {
		return nil, err
	}
	g.ReleaseStats()
	t2 := telemetryNow()
	cfg.stage("weight", t2.Sub(t1))
	// Spilled reads fail closed inside the passes: a pruning pass over
	// corrupt or truncated segments returns the named store error, never
	// pairs derived from zeroed runs.
	pairs, err := PruneCSR(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	t3 := telemetryNow()
	cfg.stage("prune", t3.Sub(t2))
	if pairs == nil {
		pairs = make([]model.IDPair, 0)
	}
	res := &Result{
		Pairs:      pairs,
		Workers:    workers,
		GraphTime:  t1.Sub(t0),
		WeightTime: t2.Sub(t1),
		PruneTime:  t3.Sub(t2),
	}
	if !spilled {
		res.CSR = g
	}
	return res, nil
}

// RunOnGraph executes weighting and pruning on a prebuilt edge-list
// graph (always the EdgeList engine). The graph's weights are
// overwritten. Useful for ablations that reuse one graph across schemes.
func RunOnGraph(g *graph.Graph, cfg Config) *Result {
	t1 := telemetryNow()
	cfg.Scheme.Apply(g)
	t2 := telemetryNow()
	retained := pruneGraph(g, cfg)
	t3 := telemetryNow()
	pairs := make([]model.IDPair, len(retained))
	for i, idx := range retained {
		pairs[i] = g.Edges[idx].Pair()
	}
	return &Result{Pairs: pairs, Graph: g, WeightTime: t2.Sub(t1), PruneTime: t3.Sub(t2)}
}

// telemetryNow reads the wall clock for the per-stage timing telemetry
// (Result.GraphTime/WeightTime/PruneTime and the stage progress hook).
// It is the package's single audited wall-clock read: stage durations
// are reported to callers, never folded into any computed pair set, so
// the determinism contract is untouched.
func telemetryNow() time.Time {
	//blast:allow wallclock -- telemetry clock: stage durations are reported, never feed a pinned computation
	return time.Now()
}
