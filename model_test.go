package blast

// The write path's differential harness. BLAST's χ² weight reads |B|,
// so every streamed batch re-weighs the whole graph, and the write path
// has one contract: whatever an Index or a Server has admitted, it
// serves byte for byte what a cold IndexBlocks over its live collection
// serves. A harness case draws its data, its options and its target
// from a lattice (space), runs a generated op sequence on the target,
// and feeds every batch a Server admits to a plain in-memory Index, the
// model (an Index target is its own). At case start staged MetaBlock,
// the model and the start state agree; at every checkpoint
// one comparer (sameServed) holds the target to a cold IndexBlocks over
// its live collection, to MetaBlock's pairs over that collection, and
// to the model. Cases are named seed=N, so
// `go test -run 'TestX/seed=N$'` replays one.

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/weights"
)

// served is what the comparer reads: an Index, a Server or a View.
type served interface {
	NumProfiles() int
	Threshold(profile int) float64
	Candidates(profile int) []Candidate
	AppendCandidates(buf []Candidate, profile int) []Candidate
}

// writable is a harness target: an Index or a Server.
type writable interface {
	served
	Schema() *Schema
	Blocks() *blocking.Collection
	InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error)
}

// rowsOf returns the rows x serves from, and its Pairs.
func rowsOf(t *testing.T, x served) (rows *shard.Snapshot, pairs []model.IDPair) {
	t.Helper()
	var err error
	switch x := x.(type) {
	case *Index:
		rows, pairs = x.frozen(), x.Pairs()
	case *Server:
		rows = x.state.Load().rows
		pairs, err = x.Pairs(context.Background())
	case *View:
		rows = x.rows
		pairs, err = x.rows.Pairs(context.Background())
	}
	if err != nil {
		t.Fatalf("Pairs: %v", err)
	}
	return rows, pairs
}

// sameServed is the write path's one comparer: it fails unless got
// serves exactly what want serves — the profile, edge and retained
// counts, the rows entry for entry, Pairs, and every profile's
// Threshold and Candidates, weights and thresholds compared bitwise.
func sameServed(t *testing.T, label string, want, got served) {
	t.Helper()
	wr, wp := rowsOf(t, want)
	gr, gp := rowsOf(t, got)
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch n := want.NumProfiles(); {
	case got.NumProfiles() != n || gr.NumEdges != wr.NumEdges || gr.RetainedPairs != wr.RetainedPairs:
		t.Fatalf("%s: %d profiles, %d edges, %d retained pairs; want %d, %d, %d",
			label, got.NumProfiles(), gr.NumEdges, gr.RetainedPairs, n, wr.NumEdges, wr.RetainedPairs)
	case !slices.Equal(gr.Offsets, wr.Offsets) || !slices.Equal(gr.Neighbors, wr.Neighbors):
		t.Fatalf("%s: rows differ in shape (%d entries, want %d)", label, len(gr.Neighbors), len(wr.Neighbors))
	case !slices.EqualFunc(gr.Weights, wr.Weights, bits) || !slices.EqualFunc(gr.Theta, wr.Theta, bits):
		t.Fatalf("%s: weights or thresholds differ", label)
	}
	assertSamePairs(t, label+" pairs", wp, gp)
	same := func(a, b Candidate) bool { return a.ID == b.ID && bits(a.Weight, b.Weight) }
	var wc, gc []Candidate
	for i := 0; i < want.NumProfiles(); i++ {
		wc, gc = want.AppendCandidates(wc[:0], i), got.AppendCandidates(gc[:0], i)
		if w, g := want.Threshold(i), got.Threshold(i); !bits(w, g) || !slices.EqualFunc(wc, gc, same) {
			t.Fatalf("%s: profile %d serves %v at threshold %v, want %v at %v", label, i, gc, g, wc, w)
		}
	}
}

// matchesCold holds an Index or a Server to a cold IndexBlocks over its
// own live collection; a Server is quiesced first, after which it must
// have published every profile it admitted.
func matchesCold(t *testing.T, label string, p *Pipeline, w writable) {
	t.Helper()
	ctx := context.Background()
	if srv, ok := w.(*Server); ok {
		if err := srv.Quiesce(ctx); err != nil {
			t.Fatalf("%s: Quiesce: %v", label, err)
		}
		if n, a := srv.NumProfiles(), srv.Admitted(); n != a {
			t.Fatalf("%s: quiesced server published %d of %d admitted profiles", label, n, a)
		}
	}
	cold, err := p.IndexBlocks(ctx, &Blocks{Collection: w.Blocks().Clone(), Schema: w.Schema()})
	if err != nil {
		t.Fatalf("%s: cold IndexBlocks: %v", label, err)
	}
	sameServed(t, label+" vs cold IndexBlocks", cold, w)
}

// target is what a case drives.
type target uint8

const (
	onIndex   target = iota // an Index
	onServer                // an in-memory Server
	onDurable               // a durable Server, closed and reopened
)

// opKind is one step of a case.
type opKind uint8

const (
	opInsertAll opKind = iota // InsertAll of n profiles, at least one
	opCompact                 // a read of an Index, which folds; Server.Quiesce
	opPin                     // pin a Server View, re-read at every later check
	opProbe                   // reads at and past the id boundaries
	opCheck                   // hold the target to the three references
	opReopen                  // close a durable Server, reopen it at n shards (0: as before)
)

type op struct {
	kind opKind
	n    int
}

// insertAll is an InsertAll of n profiles; singles is n InsertAlls of
// one profile and a check.
func insertAll(n int) op { return op{opInsertAll, n} }

func singles(n int) []op { return append(make([]op, n), check) }

var compact, pin, probe, check = op{kind: opCompact}, op{kind: opPin}, op{kind: opProbe}, op{kind: opCheck}

// randomOps streams 10–34 profiles by InsertAlls of 1 and of 1–6,
// with compactions, pinned Views, boundary probes, a check after a
// quarter of the steps and — on a durable Server — up to two reopens,
// at a count of shardAxis or the one before; it ends with a check. Zero
// choices (exhausted fuzz bytes) are the cheapest steps.
func randomOps(ch chooser, durable bool) []op {
	var ops []op
	total, reopens := 10+ch.Intn(25), 0
	for streamed := 0; streamed < total && len(ops) < 96; {
		switch k := ch.Intn(8); {
		case k == 0:
			ops, streamed = append(ops, op{}), streamed+1
		case k <= 3:
			n := 1 + ch.Intn(6)
			ops, streamed = append(ops, insertAll(n)), streamed+n
		case k <= 6:
			ops = append(ops, []op{compact, pin, probe}[k-4])
		case durable && reopens < 2:
			ops, reopens = append(ops, op{opReopen, pick(ch, append([]int{0}, shardAxis...), 0)}), reopens+1
		}
		if ch.Intn(4) == 3 {
			ops = append(ops, check)
		}
	}
	return append(ops, check)
}

// chooser is where a case's choices come from: a seeded RNG, a grid
// position, or the bytes of a fuzz input.
type chooser interface{ Intn(n int) int }

// digits chooses the mixed-radix digits of a case index, so the cases
// 0..∏n-1 enumerate every combination of the axes drawn through it.
type digits struct{ i int }

func (d *digits) Intn(n int) int {
	v := d.i % n
	d.i /= n
	return v
}

// fuzzBytes chooses by a fuzz input's bytes, in order, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// pick draws one value of an axis, or def when the axis is empty.
func pick[T any](ch chooser, axis []T, def T) T {
	if len(axis) == 0 {
		return def
	}
	return axis[ch.Intn(len(axis))]
}

// data makes a case's dataset and the profiles it streams before
// synthProfile draws take over.
type data func(rng *stats.RNG) (*model.Dataset, []model.Profile)

// dirtyData is a synthetic dirty dataset of lo..hi profiles.
func dirtyData(lo, hi int) data {
	return func(rng *stats.RNG) (*model.Dataset, []model.Profile) {
		return synthDirty(rng, lo+rng.Intn(hi-lo+1)), nil
	}
}

// cleanData is a synthetic clean-clean dataset of n1 + n2 profiles.
func cleanData(n1, n2 int) data {
	return func(rng *stats.RNG) (*model.Dataset, []model.Profile) {
		e := []*model.Collection{model.NewCollection("ref"), model.NewCollection("live")}
		for i := 0; i < n1+n2; i++ {
			e[min(i/n1, 1)].Append(synthProfile(rng, fmt.Sprintf("p%d", i)))
		}
		return &model.Dataset{Name: "cc", Kind: model.CleanClean, E1: e[0], E2: e[1], Truth: model.NewGroundTruth()}, nil
	}
}

// registryData is a registry dataset at scale and seed whose last hold
// profiles (of E2 when clean-clean) are streamed instead of built. It is
// generated once and shared by every case of the entry, so the entry's
// cases share its Phase 1–2 stages.
func registryData(name string, scale float64, seed uint64, hold int) data {
	once := sync.OnceValues(func() (*model.Dataset, []model.Profile) {
		gen, _ := datasets.ByName(name)
		ds := gen(scale, seed)
		tail := &ds.E1
		if ds.Kind == model.CleanClean {
			tail = &ds.E2
		}
		all := (*tail).Profiles
		if hold > 0 {
			*tail = &model.Collection{Name: (*tail).Name, Profiles: all[:len(all)-hold]}
			ds.Truth = model.NewGroundTruth()
		}
		return ds, all[len(all)-hold:]
	})
	return func(*stats.RNG) (*model.Dataset, []model.Profile) { return once() }
}

// bytesData is randomDataset over 0..32 random bytes.
func bytesData(rng *stats.RNG) (*model.Dataset, []model.Profile) {
	raw := make([]byte, rng.Intn(33))
	for i := range raw {
		raw[i] = byte(rng.Intn(256))
	}
	return randomDataset(raw), nil
}

// Axis values shared by the harness entries. shardAxis is the one list
// of party counts.
var (
	shardAxis   = []int{1, 2, 3, 4}
	workersAxis = []int{0, 1, 2, 4}
	allPrunings = []metablocking.Pruning{
		metablocking.WEP, metablocking.CEP, metablocking.WNP1, metablocking.WNP2,
		metablocking.CNP1, metablocking.CNP2, metablocking.BlastWNP,
	}
	sixSchemes = []weights.Scheme{
		{Kind: weights.ChiSquared, Entropy: true}, {Kind: weights.CBS}, {Kind: weights.JS},
		{Kind: weights.ARCS, Entropy: true}, {Kind: weights.ECBS}, {Kind: weights.EJS},
	}
)

// optionLattice draws every case from the whole option lattice —
// Induction × Scheme kind × Entropy × Pruning × C × K × Workers — and
// runs randomOps.
var optionLattice = space{
	induction: []Induction{LMI, AC, NoInduction},
	schemes:   schemesOf(weights.CBS, weights.ECBS, weights.ARCS, weights.JS, weights.EJS, weights.ChiSquared),
	prunings:  allPrunings,
	c:         []float64{1, 2, 4},
	k:         []int{0, 1, 3},
	workers:   workersAxis,
	random:    true,
}

// schemesOf crosses weighting kinds with entropy off and on.
func schemesOf(kinds ...weights.Kind) []weights.Scheme {
	var out []weights.Scheme
	for _, k := range kinds {
		out = append(out, weights.Scheme{Kind: k}, weights.Scheme{Kind: k, Entropy: true})
	}
	return out
}

// space is the lattice a harness entry draws its cases from; an empty
// axis keeps its default (DefaultOptions, dirtyData(40, 40), an Index,
// one shard, SwapOps 8). Every case runs ops, or randomOps when random.
// With cases 0 the space is a grid: the cases 0..∏-1 enumerate every
// combination of data × induction × scheme × pruning × C × K (×
// shards, when crossShards) by the digits of the case index, and the
// digits of the same index cycle workers and the other target axes.
// Otherwise cases are drawn, every axis and the ops from an RNG seeded
// by the case index. Either way a case draws synthetic data from its
// own seed; registryData is one dataset for the whole entry.
type space struct {
	data                 []data
	induction            []Induction
	schemes              []weights.Scheme
	prunings             []metablocking.Pruning
	c                    []float64
	k                    []int
	workers              []int
	targets              []target
	shards, swapOps      []int
	snapEvery, syncEvery []int
	ops                  []op
	random               bool
	crossShards          bool // grid: shards is a lattice axis
	cases                int
}

// modelCase is one drawn case; seed draws its data and streamed
// profiles.
type modelCase struct {
	name   string
	seed   uint64
	data   data
	opt    Options
	target target
	sopt   ServerOptions
	ops    []op
	stages *stages
}

func (s space) draw(name string, seed uint64, lattice, axes, ops chooser) modelCase {
	c := modelCase{name: name, seed: seed, opt: DefaultOptions(), data: pick(lattice, s.data, dirtyData(40, 40)), ops: s.ops}
	c.opt.Induction = pick(lattice, s.induction, c.opt.Induction)
	c.opt.Scheme = pick(lattice, s.schemes, c.opt.Scheme)
	c.opt.Pruning = pick(lattice, s.prunings, c.opt.Pruning)
	c.opt.C = pick(lattice, s.c, c.opt.C)
	c.opt.K = pick(lattice, s.k, c.opt.K)
	c.opt.Workers = pick(axes, s.workers, c.opt.Workers)
	c.target = pick(axes, s.targets, onIndex)
	shards := axes
	if s.crossShards {
		shards = lattice
	}
	c.sopt = ServerOptions{Shards: pick(shards, s.shards, 1), SwapOps: pick(axes, s.swapOps, 8)}
	if c.target == onDurable {
		c.sopt.SnapshotEvery, c.sopt.SyncEvery = pick(axes, s.snapEvery, 0), pick(axes, s.syncEvery, 0)
	}
	if s.random {
		c.ops = randomOps(ops, c.target == onDurable)
	}
	return c
}

// fromBytes draws a case by a fuzz input: its bytes are the choices,
// and a seed hashed from them draws the data.
func (s space) fromBytes(raw []byte) modelCase {
	seed := uint64(len(raw)) * 1099511628211
	for _, b := range raw {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	ch := fuzzBytes(raw)
	return s.draw("fuzz", seed|1, &ch, &ch, &ch)
}

// run runs every case of the space as a subtest named seed=N.
func (s space) run(t *testing.T) {
	lattice := max(len(s.data), 1) * max(len(s.induction), 1) * max(len(s.schemes), 1) *
		max(len(s.prunings), 1) * max(len(s.c), 1) * max(len(s.k), 1)
	if s.crossShards {
		lattice *= max(len(s.shards), 1)
	}
	n, shared := cmp.Or(s.cases, lattice), &stages{}
	cases := make([]modelCase, n)
	for i := range cases {
		seed := uint64(i)*0x9E3779B97F4A7C15 + 1
		rng := stats.NewRNG(seed)
		if s.cases == 0 {
			cases[i] = s.draw(fmt.Sprintf("seed=%d", i), seed, &digits{i}, &digits{i}, rng)
		} else {
			cases[i] = s.draw(fmt.Sprintf("seed=%d", i), seed, rng, rng, rng)
		}
		cases[i].stages = shared
	}
	runCases(t, cases)
}

// runCases runs each case as a subtest named after it. Cases share
// nothing mutable, so they run in parallel, with each other and with
// the other harness entries.
func runCases(t *testing.T, cases []modelCase) {
	t.Parallel()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.run(t)
		})
	}
}

// stages shares the Phase 1 and 2 artifacts of one dataset and
// induction — the only Phase 1–2 axis a space has — among the cases of
// an entry, which then differ in Phase 3 only: the sweep the staged API
// exists for.
type stages struct{ sync.Map }

func (s *stages) blocks(ctx context.Context, p *Pipeline, ds *model.Dataset) (*Blocks, error) {
	k := struct {
		*model.Dataset
		Induction
	}{ds, p.opt.Induction}
	if b, ok := s.Load(k); ok {
		return b.(*Blocks), nil
	}
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		return nil, err
	}
	b, err := p.Block(ctx, ds, sch)
	if err == nil {
		s.Store(k, b)
	}
	return b, err
}

// modelRun is a case in flight.
type modelRun struct {
	modelCase
	t      *testing.T
	ctx    context.Context
	p      *Pipeline
	ds     *model.Dataset
	rng    *stats.RNG      // draws the streamed profiles
	stream []model.Profile // streamed before rng draws
	blocks *Blocks         // the start state's
	dir    string          // a durable target's directory
	w      writable        // the target: ix or srv
	ix     *Index
	srv    *Server
	model  *Index         // fed every batch a Server admits; an Index is its own
	events map[string]int // what Options.Progress reported
	// base is the profiles at start; admitted and inserted count them
	// with, and without, the base, and batches the insert calls.
	base, admitted, inserted, batches int
	pins                              []pinned
}

// pinned is a View and a deep copy of its rows taken when it was pinned.
type pinned struct{ v, copy *View }

func (r *modelRun) must(err error, what string) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("%s: %v", what, err)
	}
}

// run runs the case: start state, ops, and a Server's Close.
func (c modelCase) run(t *testing.T) {
	r := &modelRun{modelCase: c, t: t, ctx: context.Background(), events: map[string]int{}}
	r.opt.Progress = func(phase string, _ time.Duration) { r.events[phase]++ }
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("case: options %+v, target %d %+v, ops %v", r.opt, r.target, r.sopt, r.ops)
		}
	})
	r.rng = stats.NewRNG(r.seed)
	r.ds, r.stream = r.data(r.rng)
	r.base, r.admitted = r.ds.NumProfiles(), r.ds.NumProfiles()
	var err error
	r.p, err = NewPipeline(r.opt)
	r.must(err, "NewPipeline")
	if r.stages == nil {
		r.stages = &stages{}
	}
	r.blocks, err = r.stages.blocks(r.ctx, r.p, r.ds)
	r.must(err, "InduceSchema and Block")
	staged, err := r.p.MetaBlock(r.ctx, r.blocks)
	r.must(err, "MetaBlock")
	if r.target == onDurable {
		r.dir = t.TempDir()
	}
	r.open("start")
	if r.srv != nil {
		r.model, err = r.p.IndexBlocks(r.ctx, r.blocks)
		r.must(err, "model IndexBlocks")
		sameServed(t, "start state vs model", r.model, r.srv)
	}
	assertSamePairs(t, "start state vs MetaBlock", staged.Pairs, r.model.Pairs())
	r.consistent("start")
	r.probe("start")
	for i, o := range r.ops {
		r.step(fmt.Sprintf("op %d (%d)", i, o.kind), o)
	}
	if r.srv != nil {
		r.close("end")
	}
}

// open builds the target, or reopens a durable one, which must recover
// exactly the admitted profiles: by adopting the state a drained Close
// persisted at the cut, with no build and nothing else reported, or —
// where persistence is off or nothing was ever admitted — by one build.
func (r *modelRun) open(label string) {
	var err error
	clear(r.events)
	if r.target == onIndex {
		r.ix, err = r.p.IndexBlocks(r.ctx, r.blocks)
		r.w, r.model = r.ix, r.ix
	} else {
		sopt := r.sopt
		sopt.Dir = r.dir
		r.srv, err = r.p.ServeBlocks(r.ctx, r.blocks, sopt)
		r.w = r.srv
	}
	r.must(err, label)
	if r.srv != nil && r.srv.Admitted() != r.admitted {
		r.t.Fatalf("%s: server admits %d profiles, want %d", label, r.srv.Admitted(), r.admitted)
	}
	if want := map[string]int{"index": 1}; r.dir != "" && label != "start" {
		if r.sopt.SnapshotEvery >= 0 && r.batches > 0 {
			want = map[string]int{}
		}
		if !maps.Equal(r.events, want) {
			r.t.Fatalf("%s: reported %v, want %v", label, r.events, want)
		}
	}
}

// close closes the Server, which must go on serving the drained state.
func (r *modelRun) close(label string) {
	r.must(r.srv.Close(), label+": Close")
	sameServed(r.t, label+": after Close, vs model", r.model, r.srv)
}

func (r *modelRun) step(label string, o op) {
	switch o.kind {
	case opInsertAll:
		r.insert(label, o)
	case opCompact:
		if r.ix != nil {
			r.fold(label)
		} else {
			r.must(r.srv.Quiesce(r.ctx), label+": Quiesce")
		}
	case opPin:
		if r.srv != nil {
			v, err := r.srv.View(r.ctx)
			r.must(err, label+": View")
			rows := *v.rows
			rows.Offsets, rows.Neighbors = slices.Clone(rows.Offsets), slices.Clone(rows.Neighbors)
			rows.Weights, rows.Theta = slices.Clone(rows.Weights), slices.Clone(rows.Theta)
			r.pins = append(r.pins, pinned{v, &View{rows: &rows}})
		}
	case opProbe:
		r.probe(label)
	case opCheck:
		r.check(label)
	case opReopen:
		r.close(label)
		r.sopt.Shards = cmp.Or(o.n, r.sopt.Shards)
		r.open(label + ": reopen")
	}
	// Unquiesced reads observe a prefix of the insert sequence.
	if r.srv != nil {
		if n := r.srv.NumProfiles(); n < r.base || n > r.srv.Admitted() {
			r.t.Fatalf("%s: published %d profiles, outside [%d, %d]", label, n, r.base, r.srv.Admitted())
		}
	}
}

// insert streams the op's profiles into the target and the model: the
// ids are contiguous from the admitted count, the model's, and on
// clean-clean data at or above the E1/E2 split.
func (r *modelRun) insert(label string, o op) {
	profs := make([]model.Profile, max(o.n, 1))
	for i := range profs {
		if len(r.stream) > 0 {
			profs[i], r.stream = r.stream[0], r.stream[1:]
		} else {
			profs[i] = synthProfile(r.rng, fmt.Sprintf("s%d", r.inserted+i))
		}
	}
	ids, err := r.w.InsertAll(r.ctx, profs)
	r.must(err, label+": insert")
	want := ids
	if r.srv != nil {
		want, err = r.model.InsertAll(r.ctx, profs)
		r.must(err, label+": model InsertAll")
	}
	for k, id := range ids {
		if id != r.admitted+k || id != want[k] || id < r.ds.Split() {
			r.t.Fatalf("%s: id[%d] = %d, want %d (model %d, split %d)", label, k, id, r.admitted+k, want[k], r.ds.Split())
		}
	}
	r.admitted, r.inserted, r.batches = r.admitted+len(profs), r.inserted+len(profs), r.batches+1
}

// fold reads an Index, which re-freezes once if any batch is pending:
// after it every batch is folded, and a read with nothing pending does
// not re-freeze.
func (r *modelRun) fold(label string) {
	before := r.ix.Stats()
	r.ix.NumProfiles()
	want := before.Compactions
	if before.RebuiltBatches < r.batches {
		want++
	}
	if st := r.ix.Stats(); st.Compactions != want || st.RebuiltBatches != r.batches || st.LocalizedBatches != 0 {
		r.t.Fatalf("%s: a read took the stats from %+v to %+v, want %d re-freezes folding %d batches", label, before, st, want, r.batches)
	}
}

// check holds the target to a cold IndexBlocks over its live collection,
// MetaBlock's pairs over that collection and the model, and every pinned
// View to what it served when pinned. A quiesced Server's View sits at
// the insert calls admitted, across reopens too.
func (r *modelRun) check(label string) {
	t := r.t
	matchesCold(t, label, r.p, r.w)
	if r.ix != nil {
		if st := r.ix.Stats(); st.Inserts != r.inserted || st.RebuiltBatches != r.batches {
			t.Fatalf("%s: after a read, Stats() = %+v, want %d inserts in %d folded batches", label, st, r.inserted, r.batches)
		}
	} else {
		v, err := r.srv.View(r.ctx)
		r.must(err, label+": View")
		if v.rows.Batches != int64(r.batches) {
			t.Fatalf("%s: quiesced View at batch %d, want %d", label, v.rows.Batches, r.batches)
		}
	}
	live := r.w.Blocks()
	r.must(live.Validate(), label+": live collection")
	mb, err := r.p.MetaBlock(r.ctx, &Blocks{Collection: live, Schema: r.w.Schema()})
	r.must(err, label+": MetaBlock")
	_, pairs := rowsOf(t, r.w)
	assertSamePairs(t, label+" vs MetaBlock", mb.Pairs, pairs)
	if r.srv != nil {
		sameServed(t, label+" vs model", r.model, r.srv)
	}
	r.consistent(label)
	for i, p := range r.pins {
		if p.v.rows.Batches != p.copy.rows.Batches {
			t.Fatalf("%s: View %d pinned at batch %d moved to %d", label, i, p.copy.rows.Batches, p.v.rows.Batches)
		}
		sameServed(t, fmt.Sprintf("%s: View %d pinned at batch %d", label, i, p.v.rows.Batches), p.copy, p.v)
	}
}

// consistent holds the target's candidate lists to its own Pairs: each
// is comparable with its profile and in descending weight, and together
// they are exactly the retained pairs.
func (r *modelRun) consistent(label string) {
	_, pairs := rowsOf(r.t, r.w)
	seen := make(map[model.IDPair]bool, len(pairs))
	var buf []Candidate
	for i := 0; i < r.w.NumProfiles(); i++ {
		buf = r.w.AppendCandidates(buf[:0], i)
		for k, c := range buf {
			if !r.ds.Comparable(i, int(c.ID)) || k > 0 && c.Weight > buf[k-1].Weight {
				r.t.Fatalf("%s: candidates of %d: %v", label, i, buf)
			}
			seen[model.MakePair(i, int(c.ID))] = true
		}
	}
	n := len(seen)
	for _, pr := range pairs {
		delete(seen, pr)
	}
	if n != len(pairs) || len(seen) != 0 {
		r.t.Fatalf("%s: candidate lists hold %d pairs, %d of them not among the %d retained", label, n, len(seen), len(pairs))
	}
}

// probe reads at and past the id boundaries: an id out of range serves
// an empty, non-nil candidate list, appends nothing and has threshold 0.
// A Server is probed through a View, whose bounds no publication moves,
// and by its own reads at ids no state holds and its Pairs.
func (r *modelRun) probe(label string) {
	at := func(x served, id int, inside bool) {
		got, buf := x.Candidates(id), x.AppendCandidates(make([]Candidate, 2, 8), id)
		if got == nil || len(buf) < 2 || !inside && (len(got) != 0 || len(buf) != 2 || x.Threshold(id) != 0) {
			r.t.Fatalf("%s: id %d (in range: %v) served %v, appended %d to a buffer of 2, threshold %v",
				label, id, inside, got, len(buf)-2, x.Threshold(id))
		}
	}
	x, ids := served(r.ix), []int{-1, 1 << 30}
	if r.srv != nil {
		for _, id := range ids {
			at(r.srv, id, false)
		}
		rowsOf(r.t, r.srv)
		var err error
		x, err = r.srv.View(r.ctx)
		r.must(err, label+": View")
	}
	n := x.NumProfiles()
	for _, id := range append(ids, 0, n-1, n, n+1, r.admitted) {
		at(x, id, id >= 0 && id < n)
	}
}

// FuzzSnapshotSwap fuzzes the write path: the input's bytes are the
// harness's choices — the options, an in-memory or durable Server's
// shard count, SwapOps and cadences, and the op sequence — while a seed
// hashed from them draws the data. Registered in CI's fuzz smoke
// matrix.
func FuzzSnapshotSwap(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 255, 19, 4, 4, 4, 200, 1, 13, 13})
	f.Add([]byte{250, 9, 31, 64, 128, 2, 90, 17, 6, 44, 91, 3})
	s := optionLattice
	s.data, s.targets, s.shards = []data{dirtyData(16, 32), cleanData(12, 12)}, []target{onServer, onDurable}, shardAxis
	s.swapOps, s.snapEvery, s.syncEvery = []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{-1, 0, 1}, []int{-1, 0, 1}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 0 && len(raw) <= 64 {
			s.fromBytes(raw).run(t)
		}
	})
}

// TestStreamedKeysMatchPhase2: a streamed profile gets the keys a batch
// build gives it. With purging and filtering off, Phase 2 puts every
// profile in the block of each of its keys that entails a comparison,
// so the keys tokenizeProfile — the writer's tokenizer — gives a profile
// that name a block of the collection must be exactly the blocks the
// profile is a member of, with the blocks' entropies: for every E2
// profile of a clean-clean dataset (streamed profiles join E2) and
// every profile of a dirty one, under every induction. A key the
// tokenizer repeats must repeat its entropy, or the two sets differ in
// size.
func TestStreamedKeysMatchPhase2(t *testing.T) {
	ctx := context.Background()
	for _, name := range append(datasets.CleanCleanNames(), datasets.DirtyNames()...) {
		gen, _ := datasets.ByName(name)
		ds := gen(0.05, 5)
		for _, ind := range []Induction{LMI, AC, NoInduction} {
			opt := DefaultOptions()
			opt.Induction, opt.PurgeRatio, opt.FilterRatio = ind, 1, 1 // 1 disables both
			p, err := NewPipeline(opt)
			if err != nil {
				t.Fatal(err)
			}
			sch, err := p.InduceSchema(ctx, ds)
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := p.Block(ctx, ds, sch)
			if err != nil {
				t.Fatal(err)
			}
			c := blocks.Collection
			phase2 := make([][]blocking.KeyEntropy, c.NumProfiles)
			index := make(map[string]bool, c.Len())
			for b := 0; b < c.Len(); b++ {
				index[c.Key(b)] = true
				for side := 0; side < 2; side++ {
					run, _ := c.Members(b, side)
					for _, u := range run {
						phase2[u] = append(phase2[u], blocking.KeyEntropy{Key: c.Key(b), Entropy: c.Entropy(b)})
					}
				}
			}
			from := 0
			if ds.Kind == model.CleanClean {
				from = ds.Split()
			}
			for u := from; u < ds.NumProfiles(); u++ {
				streamed := make(map[blocking.KeyEntropy]bool)
				for _, ke := range tokenizeProfile(sch, ds.Kind, &opt, ds.Profile(u)) {
					if index[ke.Key] {
						streamed[ke] = true
					}
				}
				missing := slices.ContainsFunc(phase2[u], func(ke blocking.KeyEntropy) bool { return !streamed[ke] })
				if missing || len(streamed) != len(phase2[u]) {
					t.Fatalf("%v/%s: profile %d: streamed keys %v, Phase 2 keys %v", ind, name, u, streamed, phase2[u])
				}
			}
		}
	}
}
