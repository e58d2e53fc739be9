package main

// surface.go is the benchmark's whole view of the product: every
// reference to a blast/... package lives in this file (a test fails if
// another file of the directory imports the module), so a PR that must
// touch one of these symbols knows beforehand that it needs a
// `benchmark` issue first. The list deliberately avoids everything the
// ROADMAP schedules for deletion: no Options.Engine, no Supervised, no
// graph.Build (edge list), no replicated topology. The symbols are
// listed in README.md ("API surface").

import (
	"context"
	"encoding/json"

	"blast"
	"blast/blasthttp"
	"blast/internal/attr"
	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/metablocking"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
	"blast/internal/weights"
)

type (
	Dataset      = model.Dataset
	Profile      = model.Profile
	IDPair       = model.IDPair
	Truth        = model.GroundTruth
	Collection   = blocking.Collection
	CSR          = graph.CSR
	Scheme       = weights.Scheme
	Pruning      = metablocking.Pruning
	Partitioning = attr.Partitioning
	AttrProfile  = attr.Profile
	Quality      = metrics.Quality
	Pipeline     = blast.Pipeline
	Blocks       = blast.Blocks
	Schema       = blast.Schema
	Index        = blast.Index
	Server       = blast.Server
	Candidate    = blast.Candidate
	Handler      = blasthttp.Handler
	WAL          = wal.Log
)

// The Phase-3 grid axes. The short names are the metric suffixes.
var (
	schemeChi2H = weights.Blast()
	schemeCBS   = Scheme{Kind: weights.CBS}
	schemeEJS   = Scheme{Kind: weights.EJS}

	schemeNames = map[Scheme]string{schemeChi2H: "chi2h", schemeCBS: "cbs", schemeEJS: "ejs"}
)

const (
	pruneWEP      = metablocking.WEP
	pruneCEP      = metablocking.CEP
	pruneWNP1     = metablocking.WNP1
	pruneWNP2     = metablocking.WNP2
	pruneCNP1     = metablocking.CNP1
	pruneCNP2     = metablocking.CNP2
	pruneBlastWNP = metablocking.BlastWNP
)

// ---- datasets ----

func genDBP(scale float64, seed uint64) *Dataset { return datasets.DBP(scale, seed) }

// genStream materializes the first base profiles of a seeded stream of
// base+extra as a dirty dataset and the remaining extra profiles as the
// insert stream. truth covers all base+extra profiles.
func genStream(base, extra int, seed uint64) (ds *Dataset, stream []Profile, truth *Truth) {
	st := datasets.NewStream(base+extra, seed)
	e := model.NewCollection("stream")
	baseTruth := model.NewGroundTruth()
	truth = model.NewGroundTruth()
	for i := 0; i < base+extra; i++ {
		if i < base {
			e.Append(st.Profile(i))
		}
		if d, ok := st.Duplicate(i); ok {
			truth.Add(d, i)
			if i < base {
				baseTruth.Add(d, i)
			}
		}
	}
	ds = &Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: baseTruth}
	return ds, st.Profiles(base, base+extra), truth
}

// ---- the public staged pipeline (what users get) ----

func newPipeline() (*Pipeline, error) { return blast.NewPipeline(blast.DefaultOptions()) }

// blocksOf lifts a served collection back into a Blocks artifact for
// the cold-rebuild differential.
func blocksOf(c *Collection, sch *Schema) *Blocks {
	return &Blocks{Collection: c.Clone(), Schema: sch}
}

// serve starts the server of serve-stream and http-mixed over a Blocks
// artifact: durable (WAL fsynced on every admitted batch), partitioned,
// two shards, SwapOps at its default 256. snapshots selects the default
// snapshot persistence (every 64 batches) or none: see wl_serve.go for
// why the timed streams run without.
func serve(ctx context.Context, p *Pipeline, b *Blocks, dir string, snapshots bool) (*Server, error) {
	opt := blast.ServerOptions{Shards: serverShards, Topology: blast.TopologyPartitioned, Dir: dir}
	if !snapshots {
		opt.SnapshotEvery = -1
	}
	return p.ServeBlocks(ctx, b, opt)
}

const serverShards = 2

// ---- the decomposed call sequence (each layer timed from outside) ----

// tokenizeAll applies the default Transform once to every value.
func tokenizeAll(ds *Dataset) (tokens int) {
	tr := blast.DefaultOptions().Transform
	for _, c := range ds.Sources() {
		for i := range c.Profiles {
			for _, pr := range c.Profiles[i].Pairs {
				tokens += len(tr.Terms(pr.Value))
			}
		}
	}
	return tokens
}

func extractProfiles(ds *Dataset) []AttrProfile {
	return attr.ExtractProfiles(ds, blast.DefaultOptions().Transform)
}

func induceLMI(ctx context.Context, profiles []AttrProfile, ds *Dataset) (*Partitioning, error) {
	o := blast.DefaultOptions()
	return attr.LMICtx(ctx, profiles, ds.Kind, attr.Config{Alpha: o.Alpha, Glue: o.Glue})
}

func buildBlocks(ctx context.Context, ds *Dataset, part *Partitioning) (*Collection, error) {
	return blocking.BuildCtx(ctx, ds, blast.DefaultOptions().Transform, part.KeyFunc())
}

func cleanBlocks(raw *Collection) *Collection {
	o := blast.DefaultOptions()
	return blocking.CleanWorkflow(raw, o.PurgeRatio, o.FilterRatio)
}

func buildCSR(ctx context.Context, c *Collection, workers int) (*CSR, error) {
	return graph.BuildCSRParallelCtx(ctx, c, workers)
}

func buildCSRSpill(ctx context.Context, c *Collection, dir string, budget int64) (*CSR, error) {
	return graph.BuildCSRSpillCtx(ctx, c, graph.SpillOptions{Dir: dir, MemoryBudget: budget})
}

// pruneCSR prunes a weighted CSR under the default C/D/K.
func pruneCSR(ctx context.Context, g *CSR, s Scheme, p Pruning, workers int) ([]IDPair, error) {
	o := blast.DefaultOptions()
	return metablocking.PruneCSR(ctx, g, metablocking.Config{
		Scheme: s, Pruning: p, C: o.C, D: o.D, K: o.K, Workers: workers,
	})
}

func defaultScheme() Scheme   { return blast.DefaultOptions().Scheme }
func defaultPruning() Pruning { return blast.DefaultOptions().Pruning }

func evaluatePairs(pairs []IDPair, truth *Truth) Quality { return metrics.EvaluatePairs(pairs, truth) }
func evaluateBlocks(c *Collection, truth *Truth) Quality { return metrics.EvaluateBlocks(c, truth) }

// ---- durability layers probed standalone ----

// walEncodeOwned encodes shard 0's owned subset of a batch whose first
// profile gets global id firstID, as the partitioned server journals it.
func walEncodeOwned(dst []byte, batch []Profile, firstID int) []byte {
	return wal.AppendOwnedBatch(dst, batch, func(i int) bool {
		return shard.Owner(int32(firstID+i), serverShards) == 0
	})
}

// walOpen opens a scratch log that fsyncs every append.
func walOpen(path string) (*WAL, error) {
	l, _, err := wal.Open(path, 1)
	return l, err
}

// ---- HTTP front end ----

func newHandler(srv *Server) *Handler { return blasthttp.NewHandler(srv, blasthttp.Options{}) }

func candidatesBody(ctx context.Context, srv *Server, profile int) ([]byte, error) {
	return blasthttp.CandidatesBody(ctx, srv, profile)
}

func pairsBody(ctx context.Context, srv *Server) ([]byte, error) {
	return blasthttp.PairsBody(ctx, srv)
}

func insertBody(profiles []Profile) ([]byte, error) {
	req := blasthttp.InsertRequest{Profiles: make([]blasthttp.ProfileJSON, len(profiles))}
	for i, p := range profiles {
		req.Profiles[i] = blasthttp.FromProfile(p)
	}
	return json.Marshal(req)
}

// decodePairs parses a /v1/pairs body back into pairs.
func decodePairs(body []byte) ([]IDPair, error) {
	var resp blasthttp.PairsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make([]IDPair, len(resp.Pairs))
	for i, p := range resp.Pairs {
		out[i] = IDPair{U: p[0], V: p[1]}
	}
	return out, nil
}
