package blast

// The staged pipeline API. The paper's three-phase decomposition
// (Figure 4) is exposed as three explicit phases whose outputs are
// first-class, reusable artifacts:
//
//	InduceSchema(ctx, ds)          -> *Schema   (loose schema information)
//	Block(ctx, ds, schema)         -> *Blocks   (cleaned block collection)
//	MetaBlock(ctx, blocks)         -> *Result   (retained comparisons)
//	BuildIndex(ctx, ds)            -> *Index    (online candidate serving)
//	Serve(ctx, ds, sopt)           -> *Server   (sharded snapshot-swap serving)
//
// Artifacts decouple the phases: one *Schema can feed many Block calls,
// one *Blocks can feed many MetaBlock calls with different weighting and
// pruning settings (a C/D parameter sweep re-runs only Phase 3), and an
// *Index freezes the weighted, pruned blocking graph into a per-profile
// candidate-serving structure that additionally accepts batches of new
// profiles (Index.InsertAll), folded in by the next read. ServeBlocks (the
// blocks-level hook behind Serve, in server.go) lifts one *Blocks
// artifact into hash-partitioned snapshot-swap shards for read-heavy
// traffic. Every phase honors context cancellation at phase and
// worker-chunk granularity and reports completion to the optional
// Options.Progress observer.

import (
	"context"
	"errors"
	"time"

	"blast/internal/attr"
	"blast/internal/blocking"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/text"
)

// Pipeline executes the BLAST phases under one validated configuration.
// It is immutable and safe for concurrent use; per-call state lives in
// the artifacts. The zero value is not usable — construct with
// NewPipeline.
type Pipeline struct {
	opt Options
}

// NewPipeline validates the options and returns a pipeline over them. A
// nil Transform defaults to the standard tokenizer before validation.
func NewPipeline(opt Options) (*Pipeline, error) {
	if opt.Transform == nil {
		opt.Transform = text.NewTokenizer()
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{opt: opt}, nil
}

// Schema is the Phase 1 artifact: the loose schema information extracted
// by attribute-match induction. It is independent of every Phase 2/3
// setting, so one Schema can be reused across blocking and meta-blocking
// parameter sweeps of the same dataset.
type Schema struct {
	// Partitioning is the attribute partitioning with aggregate cluster
	// entropies; nil when induction is disabled (schema-agnostic run).
	Partitioning *attr.Partitioning
	// Induction records the algorithm that produced the schema.
	Induction Induction
	// Duration is the wall-clock time of the induction phase.
	Duration time.Duration
}

// keyFunc returns the blocking key function the schema implies:
// cluster-qualified tokens, or plain Token Blocking for a nil schema or
// disabled induction.
func (s *Schema) keyFunc() blocking.KeyFunc {
	if s == nil || s.Partitioning == nil {
		return blocking.TokenKey
	}
	return s.Partitioning.KeyFunc()
}

// Blocks is the Phase 2 artifact: the purged and filtered block
// collection, together with the references MetaBlock needs to assemble a
// full Result (the schema the keys were derived from and the dataset
// whose ground truth scores the output).
type Blocks struct {
	// Collection is the cleaned block collection.
	Collection *blocking.Collection
	// Schema is the Phase 1 artifact the blocks were keyed under; nil
	// for a schema-agnostic run.
	Schema *Schema
	// Dataset is the input the blocks were built from.
	Dataset *model.Dataset
	// Duration is the wall-clock time of the blocking phase (build,
	// purge and filter).
	Duration time.Duration
}

// InduceSchema runs Phase 1 (loose schema information extraction) on the
// dataset: attribute-match induction partitions attributes by value
// similarity and scores each cluster with its aggregate entropy. With
// Induction == NoInduction the returned schema is empty (nil
// Partitioning) and downstream blocking is schema-agnostic.
func (p *Pipeline) InduceSchema(ctx context.Context, ds *model.Dataset) (*Schema, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	sch := &Schema{Induction: p.opt.Induction}
	if p.opt.Induction != NoInduction {
		profiles := attr.ExtractProfiles(ds, p.opt.Transform)
		cfg := attr.Config{Alpha: p.opt.Alpha, Glue: p.opt.Glue, Workers: p.opt.Workers}
		if p.opt.TFIDF {
			cfg.Representation = attr.TFIDF
		}
		if p.opt.LSH != nil {
			cfg.LSH = &attr.LSHConfig{Rows: p.opt.LSH.Rows, Bands: p.opt.LSH.Bands, Seed: p.opt.LSH.Seed}
		}
		var part *attr.Partitioning
		var err error
		if p.opt.Induction == LMI {
			part, err = attr.LMICtx(ctx, profiles, ds.Kind, cfg)
		} else {
			part, err = attr.ACCtx(ctx, profiles, ds.Kind, cfg)
		}
		if err != nil {
			return nil, err
		}
		sch.Partitioning = part
	}
	sch.Duration = time.Since(t0)
	p.opt.progress("induce", sch.Duration)
	return sch, nil
}

// Block runs Phase 2 (loosely schema-aware blocking) on the dataset
// under a schema: Token Blocking with schema-disambiguated keys, with
// Block Purging fused into the build, followed by Block Filtering — one
// pass over Options.Workers goroutines, a compact array collection. schema may come from
// any pipeline (that is the point of artifact reuse) or be nil for a
// schema-agnostic run; the schema, not this pipeline's Induction
// setting, decides the keys.
func (p *Pipeline) Block(ctx context.Context, ds *model.Dataset, schema *Schema) (*Blocks, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	purged, err := blocking.BuildPurgedCtx(ctx, ds, p.opt.Transform, schema.keyFunc(), p.opt.Workers, p.opt.PurgeRatio)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cleaned := blocking.Filter(purged, p.opt.FilterRatio)
	b := &Blocks{
		Collection: cleaned,
		Schema:     schema,
		Dataset:    ds,
		Duration:   time.Since(t0),
	}
	p.opt.progress("block", b.Duration)
	return b, nil
}

// MetaBlock runs Phase 3 (meta-blocking) on a Blocks artifact: the
// blocking graph is built, weighted and pruned under this pipeline's
// Scheme/Pruning/MemoryBudget settings, so re-running MetaBlock with
// different pipelines over one Blocks artifact sweeps Phase 3 parameters
// without recomputing induction or blocking. Every stage polls ctx at
// chunk granularity. The returned Result carries the phase timings of
// the artifacts it consumed.
func (p *Pipeline) MetaBlock(ctx context.Context, blocks *Blocks) (*Result, error) {
	if blocks == nil || blocks.Collection == nil {
		return nil, errors.New("blast: MetaBlock requires a non-nil Blocks artifact")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Blocks: blocks.Collection}
	if sch := blocks.Schema; sch != nil {
		res.Partitioning = sch.Partitioning
		res.InductionTime = sch.Duration
	}
	res.BlockTime = blocks.Duration

	t0 := time.Now()
	mb, err := metablocking.RunCtx(ctx, blocks.Collection, p.metaConfig())
	if err != nil {
		return nil, err
	}
	res.Pairs = mb.Pairs
	res.MetaTime = time.Since(t0)

	if ds := blocks.Dataset; ds != nil && ds.Truth != nil && ds.Truth.Size() > 0 {
		res.Quality = metrics.EvaluatePairs(res.Pairs, ds.Truth)
	}
	return res, nil
}

// metaConfigFromOptions maps validated options onto the meta-blocking
// configuration. It is shared by the staged MetaBlock phase and by the
// Index (both the cold freeze and the incremental global re-derivation),
// so every path prunes under literally the same configuration.
func metaConfigFromOptions(o Options) metablocking.Config {
	return metablocking.Config{
		Scheme:  o.Scheme,
		Pruning: o.Pruning,
		C:       o.C,
		D:       o.D,
		K:       o.K,
		Workers: o.Workers,
		Spill:   o.spillOptions(),
	}
}

// metaConfig maps the pipeline options onto the meta-blocking
// configuration, wiring the Progress observer into the stage hook.
func (p *Pipeline) metaConfig() metablocking.Config {
	cfg := metaConfigFromOptions(p.opt)
	if p.opt.Progress != nil {
		cfg.OnStage = func(stage string, d time.Duration) { p.opt.progress(stage, d) }
	}
	return cfg
}

// Run executes the three phases in sequence: InduceSchema, Block, then
// MetaBlock. Call the phases directly to keep the intermediate artifacts
// (one Schema across a parameter sweep, one Blocks across Phase 3
// settings).
func (p *Pipeline) Run(ctx context.Context, ds *model.Dataset) (*Result, error) {
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		return nil, err
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		return nil, err
	}
	return p.MetaBlock(ctx, blocks)
}
