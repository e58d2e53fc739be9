// Package metablocking orchestrates graph-based meta-blocking: it builds
// the blocking graph of a block collection, applies a weighting scheme,
// prunes edges, and materializes the restructured block collection (each
// retained edge becomes a block of two profiles, so redundant comparisons
// are impossible by construction — Definition 2 of the paper).
//
// There is one engine: a CSR adjacency per node (graph.OwnedBuild,
// resident, or spilled to segment files), one per-entry weight
// (weights.Scheme.EntryWeight) applied as the resident build emits its
// runs or by the row-parallel kernel over a built graph, and the
// pruning decisions of package prune behind one switch (Decide) — for a
// whole graph, or for one party's owned rows of a partitioned server
// publication — collected into pairs (PruneCSR) or into the rows of a
// frozen index or a party's share of a publication (FreezeCSR). No global edge map or per-edge
// record is ever allocated, every stage polls its context, and the
// retained pairs are byte-identical at every worker count, in either
// residency and for every partition of the rows. The edge-list
// formulation of the literature survives as the test-only reference
// (internal/edgelist) the engine is held to.
package metablocking

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/shard"
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

// Config selects the weighting scheme and pruning algorithm.
type Config struct {
	// Scheme is the edge weighting (default: BLAST chi2*h).
	Scheme weights.Scheme
	// Pruning is the pruning algorithm (default BlastWNP).
	Pruning Pruning
	// C is BLAST's local threshold divisor theta_i = M_i / C (default 2).
	C float64
	// D is BLAST's threshold combiner (theta_u + theta_v) / D (default 2).
	D float64
	// K overrides the cardinality of CEP/CNP; <= 0 uses their defaults.
	K int
	// Workers parallelizes blocking-graph construction, weighting and the
	// pruning passes (see Decide): 0 uses one worker per CPU
	// (GOMAXPROCS), 1 runs serially, >1 uses exactly that many
	// goroutines. Every stage partitions its work without duplication, so
	// parallelism pays at any scale, and the output is byte-identical at
	// every count.
	Workers int
	// OnStage, when non-nil, is invoked synchronously as each internal
	// stage of a run completes ("graph", "weight", "prune") with the
	// stage's wall-clock duration. It must be fast and must not retain
	// the run's structures.
	OnStage func(stage string, d time.Duration)
	// Spill, when non-nil, selects the beyond-RAM build: the blocking
	// graph is built through graph.BuildCSRSpillCtx, spilling its
	// adjacency to segment files under Spill.Dir once the resident
	// footprint exceeds Spill.MemoryBudget. The retained pairs are
	// byte-identical to the resident build. Run closes the spilled graph
	// (deleting its segments) before it returns.
	Spill *graph.SpillOptions
}

// timed runs one stage of a run and returns its wall-clock duration,
// reporting it to the OnStage observer, if any.
func (c *Config) timed(name string, stage func() error) (time.Duration, error) {
	t0 := telemetryNow()
	if err := stage(); err != nil {
		return 0, err
	}
	d := telemetryNow().Sub(t0)
	if c.OnStage != nil {
		c.OnStage(name, d)
	}
	return d, nil
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

// Result is the outcome of a meta-blocking run.
type Result struct {
	// Pairs are the retained comparisons in canonical order; each is a
	// block of two profiles in the restructured collection.
	Pairs []model.IDPair
	// Workers is the resolved worker count requested of the graph
	// builder (0 and negatives resolve to GOMAXPROCS). The builder may
	// still fall back to a serial build on collections too small to
	// shard; RunOnCSR, which builds no graph, leaves it 0.
	Workers int
	// GraphTime, WeightTime and PruneTime decompose the overhead time to.
	// A resident BuildWeighted (and so RunCtx) weighs as it fills:
	// GraphTime is then the builder's degree pass alone and WeightTime
	// its fill-and-weigh pass; otherwise GraphTime is the whole build and
	// WeightTime the kernel's pass over it.
	GraphTime  time.Duration
	WeightTime time.Duration
	PruneTime  time.Duration
}

// Overhead returns the total meta-blocking overhead time (the paper's
// t_o, excluding the underlying blocking).
func (r *Result) Overhead() time.Duration {
	return r.GraphTime + r.WeightTime + r.PruneTime
}

// Decide runs the configured pruning decision over a weighted CSR: the
// whole graph with prune.Alone, or one party's owned rows of a graph the
// parties hold between them, whose global inputs it resolves through
// their rounds. It is the one switch over the schemes; PruneCSR and
// FreezeCSR decide through it.
// Cfg.Workers selects the parallelism of its passes (0 = GOMAXPROCS,
// 1 = serial); the decision is byte-identical at every worker count.
func Decide(ctx context.Context, g *graph.CSR, cfg Config, p prune.Parties) (prune.Decision, error) {
	workers := cfg.Workers
	switch cfg.Pruning {
	case WEP:
		return prune.WEP(ctx, g, workers, p)
	case CEP:
		return prune.CEP(ctx, g, cfg.K, workers, p)
	case WNP1:
		return prune.WNP(ctx, g, prune.Redefined, workers, p)
	case WNP2:
		return prune.WNP(ctx, g, prune.Reciprocal, workers, p)
	case CNP1:
		return prune.CNP(ctx, g, cfg.K, prune.Redefined, workers, p)
	case CNP2:
		return prune.CNP(ctx, g, cfg.K, prune.Reciprocal, workers, p)
	case BlastWNP:
		return prune.BlastWNP(ctx, g, cfg.C, cfg.D, workers, p)
	default:
		panic(fmt.Sprintf("metablocking: unknown pruning %d", int(cfg.Pruning)))
	}
}

// PruneCSR decides the configured pruning over a weighted CSR graph and
// collects the retained pairs in canonical order. It is exported for
// consumers that weight a CSR themselves and only need the retained
// pairs. Cancellation is observed at the edge-segment granularity of
// the passes.
func PruneCSR(ctx context.Context, g *graph.CSR, cfg Config) ([]model.IDPair, error) {
	d, err := Decide(ctx, g, cfg, prune.Alone)
	if err != nil {
		return nil, err
	}
	return prune.CollectPairs(ctx, g, cfg.Workers, d.Keep)
}

// FreezeCSR is PruneCSR for the candidate-serving index: the same
// decision, run by party p over the rows it holds, collected with the
// thresholds it reduced into the rows an index serves from — each
// retained entry, with its weight. Over prune.Alone the canonical walk
// of the rows is PruneCSR's pair list; over N parties shard.JoinOwned
// joins theirs into that snapshot. A last round sums the parties' entry
// and retained-entry counts — each edge counted once per endpoint — into
// the global NumEdges and RetainedPairs.
func FreezeCSR(ctx context.Context, g *graph.CSR, cfg Config, p prune.Parties) (*shard.Snapshot, error) {
	d, err := Decide(ctx, g, cfg, p)
	if err != nil {
		return nil, err
	}
	rows, err := prune.CollectOwned(ctx, g, cfg.Workers, d.Keep)
	if err != nil {
		return nil, err
	}
	counts, err := prune.GatherSum(p, g.NumEntries(), int64(len(rows.Neighbors)))
	if err != nil {
		return nil, err
	}
	return &shard.Snapshot{
		NumProfiles:   g.NumProfiles,
		NumEdges:      int(counts[0] / 2),
		RetainedPairs: int(counts[1] / 2),
		Offsets:       rows.Offsets,
		Neighbors:     rows.Neighbors,
		Weights:       rows.Weights,
		Theta:         d.Theta,
	}, nil
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

// RunCtx is Run with cooperative cancellation: graph construction,
// weighting and pruning all poll ctx at chunk (or, spilled, page)
// granularity — even inside one hub node's adjacency run — and the run
// returns ctx.Err() from the first poll that observes cancellation, with
// every worker joined and a spilled graph's segments deleted. The
// retained pairs are identical to Run's.
func RunCtx(ctx context.Context, c *blocking.Collection, cfg Config) (*Result, error) {
	g, res, err := BuildWeighted(ctx, c, cfg, prune.Alone, nil)
	if err != nil {
		return nil, err
	}
	// The graph is temporary to the run: every exit deletes a spilled
	// graph's segments (Close is a no-op on a resident one).
	if err := g.CloseAfter(res.prune(ctx, g, cfg)); err != nil {
		return nil, err
	}
	return res, nil
}

// BuildWeighted is the first half of a run, written once for RunCtx, the
// candidate-serving index (blast.IndexBlocks) and a server publication: it
// builds the blocking graph of c — resident on cfg.Workers goroutines
// over the rows owns selects (nil = every row), or spilled under
// cfg.Spill — weighed under cfg.Scheme, reporting the "graph" and
// "weight" stages. No caller reads the co-occurrence statistics after
// the weights, so the graph comes back as after ReleaseStats: a
// resident build never makes the statistics arrays at all — the degree
// pass is the "graph" stage, the fill pass weighs each entry as it
// emits it and is the "weight" stage (graph.OwnedBuild), bit-identical
// to the kernel — and a spilled one drops them once the kernel has
// weighed it. The weights read the global degrees, one round of p over
// the degree pass (an owned row's run is its node's whole adjacency); a
// spilled build holds every row and refuses owns. The graph is the
// caller's to Close; res carries the two stage timings and the resolved
// worker count. When weighting fails the graph is closed here — a
// spilled build owns segment files nobody else will delete — and its
// error joined.
func BuildWeighted(ctx context.Context, c *blocking.Collection, cfg Config, p prune.Parties, owns func(int32) bool) (g *graph.CSR, res *Result, err error) {
	res = &Result{Workers: resolveWorkers(cfg.Workers)}
	if cfg.Spill == nil {
		var b *graph.OwnedBuild
		if res.GraphTime, err = cfg.timed("graph", func() (err error) {
			b, err = graph.StartOwnedCSR(ctx, c, owns, res.Workers)
			return err
		}); err != nil {
			return nil, nil, err
		}
		if res.WeightTime, err = cfg.timed("weight", func() error {
			degrees, err := prune.GatherRows(p, b.Header().Degrees())
			if err != nil {
				return err
			}
			entries := int64(0)
			for _, d := range degrees {
				entries += int64(d)
			}
			g, err = b.Fill(ctx, cfg.Scheme.EntryWeight(b.Header(), degrees, int(entries/2)))
			return err
		}); err != nil {
			return nil, nil, err
		}
		return g, res, nil
	}
	if owns != nil {
		return nil, nil, errors.New("metablocking: a spilled build cannot own rows")
	}
	res.GraphTime, err = cfg.timed("graph", func() (err error) {
		g, err = graph.BuildCSRSpillCtx(ctx, c, *cfg.Spill)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if err := res.weigh(ctx, g, cfg); err != nil {
		return nil, nil, g.CloseAfter(err)
	}
	g.ReleaseStats()
	return g, res, nil
}

// RunOnCSR executes weighting and pruning on a prebuilt CSR graph, whose
// weights are overwritten: the second half of RunCtx, for ablations and
// parameter grids that build one graph per block collection and run
// many scheme x pruning cells through it. The graph must still bear its
// co-occurrence statistics, and keeps them, so the next cell can weigh
// it again; GraphTime and Workers of the Result are left zero.
func RunOnCSR(ctx context.Context, g *graph.CSR, cfg Config) (*Result, error) {
	res := &Result{}
	if err := res.weigh(ctx, g, cfg); err != nil {
		return nil, err
	}
	if err := res.prune(ctx, g, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// weigh runs the weighting stage.
func (r *Result) weigh(ctx context.Context, g *graph.CSR, cfg Config) (err error) {
	r.WeightTime, err = cfg.timed("weight", func() error {
		return cfg.Scheme.ApplyCSRCtx(ctx, g, cfg.Workers)
	})
	return err
}

// prune runs the pruning stage over a weighted graph. Pairs is never nil
// on success, even when nothing is retained.
func (r *Result) prune(ctx context.Context, g *graph.CSR, cfg Config) (err error) {
	r.PruneTime, err = cfg.timed("prune", func() (err error) {
		r.Pairs, err = PruneCSR(ctx, g, cfg)
		return err
	})
	if r.Pairs == nil {
		r.Pairs = make([]model.IDPair, 0)
	}
	return err
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
