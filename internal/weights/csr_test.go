package weights

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/edgelist"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
)

// checkApplyCSRMatchesApply weights both representations of a collection
// and asserts bit-identical per-edge weights, with each edge's weight
// mirrored across its two CSR entries.
func checkApplyCSRMatchesApply(t *testing.T, c *blocking.Collection, s Scheme) {
	t.Helper()
	g := edgelist.Build(c)
	apply(s, g)
	csr := graph.BuildCSR(c)
	s.ApplyCSR(csr)
	for n := 0; n < csr.NumProfiles; n++ {
		for p := csr.Offsets[n]; p < csr.Offsets[n+1]; p++ {
			v := int(csr.Neighbors[p])
			e := g.EdgeBetween(n, v)
			if e == nil {
				t.Fatalf("%v: edge (%d,%d) missing", s, n, v)
			}
			if csr.Weights[p] != e.Weight {
				t.Fatalf("%v: weight(%d,%d) = %v, want %v", s, n, v, csr.Weights[p], e.Weight)
			}
		}
	}
}

func TestApplyCSRMatchesApplyAllSchemes(t *testing.T) {
	paper := blocking.TokenBlocking(datasets.PaperExample())
	rng := stats.NewRNG(11)
	random := blocking.RandomCollection(rng, model.CleanClean, 80, 50)
	for _, c := range []*blocking.Collection{paper, random} {
		for _, kind := range []Kind{CBS, ECBS, ARCS, JS, EJS, ChiSquared} {
			checkApplyCSRMatchesApply(t, c, Scheme{Kind: kind})
			checkApplyCSRMatchesApply(t, c, Scheme{Kind: kind, Entropy: true})
		}
	}
}

// mirrorWalkOracle is the weighting the per-entry kernel replaced, kept
// as its reference: every edge is weighted once, from its canonical
// (u < v) entry, and the value is written to both of its entries through
// the CanonicalMirror walk.
func mirrorWalkOracle(s Scheme, g *graph.CSR) []float64 {
	w := s.Weigher(g.NumEdges(), g.TotalBlocks)
	out := make([]float64, len(g.Neighbors))
	_ = canonicalMirror(g, func(u, v int32, p, mp int64) {
		wt := w.Weight(g.Common[p],
			g.BlockCounts[u], g.BlockCounts[v],
			int32(g.Degree(int(u))), int32(g.Degree(int(v))),
			g.ARCS[p], g.EntropySum[p])
		out[p], out[mp] = wt, wt
	})
	return out
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", label, len(got), len(want))
	}
	for p := range want {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("%s: weight %d = %v (%#x), want %v (%#x)", label, p,
				got[p], math.Float64bits(got[p]), want[p], math.Float64bits(want[p]))
		}
	}
}

// TestKernelMatchesMirrorWalk holds the one weighting kernel to the
// mirror-walk oracle bit for bit, for every scheme, at every worker
// count and in every shape a graph reaches it in: full and resident,
// two owned halves weighted apart under the exchanged (= the full
// graph's) degrees, and spilled, read back through a run cursor.
// Some blocks carry entropy 0, -0 and negative values, and two hub
// profiles co-occur less than independence predicts in blocks of
// negative entropy: entropy-scaled schemes meet zero-entropy edges and
// χ²·h produces a negative zero, whose sign a == comparison would not
// see.
func TestKernelMatchesMirrorWalk(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(77)
	for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
		rc := blocking.RandomCollection(rng, kind, 160, 110)
		blocks := make([]blocking.Block, rc.Len())
		hubA, hubB := int32(0), int32(1)
		if kind == model.CleanClean {
			hubB = int32(rc.Split)
		}
		join := func(ids []int32, id int32) []int32 {
			if slices.Contains(ids, id) {
				return ids
			}
			return append(ids, id)
		}
		for i := range blocks {
			blocks[i] = rc.Block(i)
			b := &blocks[i]
			switch i % 7 {
			case 2:
				b.Entropy = math.Copysign(0, -1)
			case 5:
				b.Entropy = -0.75
			}
			// A sits in half the blocks, B in 3/8, both in 1/8 — under
			// the 3/16 of independent profiles, so chi2's positive
			// association is 0 — and the shared blocks weigh -1.
			if i%2 == 0 {
				b.P1 = join(b.P1, hubA)
			}
			if i%4 == 1 || i%8 == 0 {
				if kind == model.CleanClean {
					b.P2 = join(b.P2, hubB)
				} else {
					b.P1 = join(b.P1, hubB)
				}
			}
			if i%8 == 0 {
				b.Entropy = -1
			}
		}
		c := blocking.FromBlocks(kind, rc.NumProfiles, rc.Split, blocks)
		full := graph.BuildCSR(c)
		degrees := make([]int32, full.NumProfiles)
		for u := range degrees {
			degrees[u] = int32(full.Degree(u))
		}
		var halves [2]*graph.CSR
		for k := range halves {
			var err error
			halves[k], err = graph.BuildOwnedCSR(ctx, c, func(n int32) bool { return int(n)%2 == k }, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		spilled, err := graph.BuildCSRSpillCtx(ctx, c, graph.SpillOptions{Dir: t.TempDir(), MemoryBudget: -1, PageEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := spilled.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()

		negZeros := 0
		for _, k := range []Kind{CBS, ECBS, ARCS, JS, EJS, ChiSquared} {
			for _, entropy := range []bool{false, true} {
				s := Scheme{Kind: k, Entropy: entropy}
				want := mirrorWalkOracle(s, full)
				for _, w := range want {
					if w == 0 && math.Signbit(w) {
						negZeros++
					}
				}
				for _, workers := range []int{0, 1, 2, 4} {
					label := fmt.Sprintf("%v %v workers=%d", kind, s, workers)
					clear(full.Weights)
					if err := s.ApplyCSRCtx(ctx, full, workers); err != nil {
						t.Fatal(err)
					}
					sameBits(t, label+" resident", full.Weights, want)

					for k, g := range halves {
						clear(g.Weights)
						if err := s.ApplyOwnedCSR(ctx, g, degrees, full.NumEdges(), workers); err != nil {
							t.Fatal(err)
						}
						for u := 0; u < g.NumProfiles; u++ {
							if u%2 != k {
								continue
							}
							sameBits(t, fmt.Sprintf("%s owned half %d row %d", label, k, u),
								g.Weights[g.Offsets[u]:g.Offsets[u+1]], want[full.Offsets[u]:full.Offsets[u+1]])
						}
					}

					if err := s.ApplyCSRCtx(ctx, spilled, workers); err != nil {
						t.Fatal(err)
					}
					got, err := readWeights(spilled)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, label+" spilled", got, want)
				}
			}
		}
		if negZeros == 0 {
			t.Errorf("%v: no scheme produced a negative zero; the sign check is vacuous", kind)
		}
	}
}

// TestWeighingFillMatchesKernel pins the fill pass that weighs as it
// emits (graph.OwnedBuild.Fill given Scheme.EntryWeight) to the path it
// replaces — the statistics-keeping fill followed by ApplyOwnedCSR — for
// every scheme, full and as the owned parts of a 2- and a 3-way split
// weighed under the exchanged (= the full graph's) degrees and edge
// count, at every worker count: Offsets and Neighbors equal, Weights
// equal bit for bit, no statistics array made, both entry arrays exact,
// and the kernel refusing to re-weigh the result. EJS is the scheme the
// builder is split for: its weight reads the degrees of BOTH endpoints
// and the global edge count, which an owned build only knows after its
// degree pass has been exchanged.
func TestWeighingFillMatchesKernel(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(2016)
	for label, c := range map[string]*blocking.Collection{
		"random dirty": blocking.RandomCollection(rng, model.Dirty, 140, 90),
		"paper":        blocking.TokenBlocking(datasets.PaperExample()),
		"clean-clean":  blocking.RandomCollection(rng, model.CleanClean, 120, 80),
	} {
		full := graph.BuildCSR(c)
		degrees, numEdges := full.Degrees(), full.NumEdges()
		for _, k := range []Kind{CBS, ECBS, ARCS, JS, EJS, ChiSquared} {
			for _, entropy := range []bool{false, true} {
				s := Scheme{Kind: k, Entropy: entropy}
				for _, parts := range []int{1, 2, 3} {
					for part := 0; part < parts; part++ {
						owns := func(n int32) bool { return int(n)%parts == part }
						for _, workers := range []int{1, 2, 4} {
							label := fmt.Sprintf("%s %v part %d/%d workers=%d", label, s, part, parts, workers)
							kept, err := graph.BuildOwnedCSR(ctx, c, owns, workers)
							if err != nil {
								t.Fatal(err)
							}
							if err := s.ApplyOwnedCSR(ctx, kept, degrees, numEdges, workers); err != nil {
								t.Fatal(err)
							}
							b, err := graph.StartOwnedCSR(ctx, c, owns, workers)
							if err != nil {
								t.Fatal(err)
							}
							g, err := b.Fill(ctx, s.EntryWeight(b.Header(), degrees, numEdges))
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(g.Offsets, kept.Offsets) || !slices.Equal(g.Neighbors, kept.Neighbors) {
								t.Fatalf("%s: adjacency differs from the statistics-keeping fill", label)
							}
							sameBits(t, label, g.Weights, kept.Weights)
							if g.Common != nil || g.ARCS != nil || g.EntropySum != nil {
								t.Fatalf("%s: the weighing fill made statistics arrays", label)
							}
							if n := len(g.Neighbors); cap(g.Neighbors) != n || len(g.Weights) != n || cap(g.Weights) != n {
								t.Fatalf("%s: entry arrays not exact: neighbors %d/%d, weights %d/%d", label,
									len(g.Neighbors), cap(g.Neighbors), len(g.Weights), cap(g.Weights))
							}
							if err := s.ApplyOwnedCSR(ctx, g, degrees, numEdges, workers); len(g.Neighbors) > 0 && err == nil {
								t.Fatalf("%s: the kernel re-weighed a graph that has no statistics", label)
							}
						}
					}
				}
			}
		}
	}
}

// TestWeigherMatchesApplyPerEdge: the kernel's weight of every entry is
// the Weigher's weight of its edge, arguments in canonical orientation.
func TestWeigherMatchesApplyPerEdge(t *testing.T) {
	g := graph.BuildCSR(blocking.TokenBlocking(datasets.PaperExample()))
	s := Blast()
	s.ApplyCSR(g)
	w := s.Weigher(g.NumEdges(), g.TotalBlocks)
	if err := canonicalMirror(g, func(u, v int32, p, mp int64) {
		want := w.Weight(g.Common[p],
			g.BlockCounts[u], g.BlockCounts[v],
			int32(g.Degree(int(u))), int32(g.Degree(int(v))),
			g.ARCS[p], g.EntropySum[p])
		if g.Weights[p] != want || g.Weights[mp] != want {
			t.Errorf("edge (%d,%d): ApplyCSR = %v / %v, Weigher = %v", u, v, g.Weights[p], g.Weights[mp], want)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWeigherPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind should panic")
		}
	}()
	Scheme{Kind: Kind(42)}.Weigher(1, 1).Weight(1, 1, 1, 1, 1, 0, 0)
}

// readWeights reads every weight of g back in entry order through a
// run cursor — over a spilled graph, every weights page once.
func readWeights(g *graph.CSR) ([]float64, error) {
	out := make([]float64, 0, g.NumEntries())
	runs := g.Reader()
	for u := 0; u < g.NumProfiles; u++ {
		_, wts := runs.Run(u)
		out = append(out, wts...)
	}
	return out, g.Err()
}

// canonicalMirror visits each edge once from its canonical (u < v) entry
// p, with mp the mirror entry in v's run pointing back at u: the sub-v
// neighbors of v lead its ascending run in the order their canonical
// entries are visited, so a per-node cursor lands on each mirror.
func canonicalMirror(g *graph.CSR, fn func(u, v int32, p, mp int64)) error {
	cursors := make([]int64, g.NumProfiles)
	return g.CanonicalCtx(context.Background(), func(u, v int32, p int64) {
		fn(u, v, p, g.Offsets[v]+cursors[v])
		cursors[v]++
	})
}
