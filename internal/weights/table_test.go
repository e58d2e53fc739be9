package weights

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
)

// tableCollection is a dirty collection over `profiles` profiles and
// `blocks` blocks in which profile i joins each block with its own
// probability, so |B_u| and |B_uv| spread over a wide range, and every
// third block carries entropy 0. Profile 0 sits in every block when
// hub is set, which makes max|B_u| = blocks.
func tableCollection(seed uint64, profiles, blocks int, hub bool) *blocking.Collection {
	rng := stats.NewRNG(seed)
	out := make([]blocking.Block, blocks)
	for b := range out {
		out[b] = blocking.Block{Key: fmt.Sprintf("k%03d", b), Entropy: float64(b%3) * 0.37}
	}
	for i := range profiles {
		p := 0.1 + 0.3*float64(i%7)/6
		for b := range out {
			if (hub && i == 0) || rng.Float64() < p {
				out[b].P1 = append(out[b].P1, int32(i))
			}
		}
	}
	return blocking.FromBlocks(model.Dirty, profiles, 0, out)
}

// TestWeightTableMatchesFormula holds the weight table of χ², ECBS and
// JS, with and without entropy, to the formula it memoizes. Every cell
// is bitwise the unscaled Weigher.Weight of its arguments, over the
// whole domain. Every entry weighed through the kernel (WeighEntries)
// and through the weighing fill equals the formula (the mirror-walk
// oracle) bitwise, on three collections: one that gets a table, one
// whose largest |B_u| exceeds tableBound although it has the entries
// for a table, and one with too few entries for its table. Each first
// asserts which bound holds it back and then which path weightTable
// takes, so none passes without a table when it should have one. The
// tabled collection is weighed at 1, 2 and 4 workers, which all read
// one table; the others at 2, the formula's worker counts being
// TestKernelMatchesMirrorWalk's.
func TestWeightTableMatchesFormula(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name                string
		c                   *blocking.Collection
		overBound, tooSmall bool
	}{
		{"tabled", tableCollection(3, 140, 40, false), false, false},
		{"over the bound", tableCollection(5, 560, tableBound, true), true, false},
		{"too small", tableCollection(7, 24, 40, false), false, true},
	} {
		full := graph.BuildCSR(tc.c)
		m := int(slices.Max(full.BlockCounts)) + 1
		cells := int64(m) * int64(m) * int64(m)
		if m > tableBound != tc.overBound || cells > full.NumEntries() != tc.tooSmall {
			t.Fatalf("%s: m = %d, %d cells for %d entries", tc.name, m, cells, full.NumEntries())
		}
		table := !tc.overBound && !tc.tooSmall
		degrees, numEdges := full.Degrees(), full.NumEdges()
		for _, kind := range []Kind{ChiSquared, ECBS, JS} {
			for _, entropy := range []bool{false, true} {
				s := Scheme{Kind: kind, Entropy: entropy}
				label := fmt.Sprintf("%s %v", tc.name, s)
				tab, tm := s.Weigher(numEdges, full.TotalBlocks).weightTable(full.BlockCounts, full.NumEntries())
				if (tab != nil) != table {
					t.Fatalf("%s: table built = %v, want %v", label, tab != nil, table)
				}
				if tab != nil {
					if tm != m || len(tab) != m*m*m {
						t.Fatalf("%s: table of side %d and %d cells, want side %d", label, tm, len(tab), m)
					}
					unscaled := Scheme{Kind: kind}.Weigher(numEdges, full.TotalBlocks)
					for bu := range int32(m) {
						for bv := range int32(m) {
							for c := range min(bu, bv) + 1 {
								got, want := tab[(int(bu)*m+int(bv))*m+int(c)], unscaled.Weight(c, bu, bv, 0, 0, 0, 0)
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s: cell (%d, %d, %d) = %v, want %v", label, c, bu, bv, got, want)
								}
							}
						}
					}
				}
				want := mirrorWalkOracle(s, full)
				workerCounts := []int{2}
				if tab != nil {
					workerCounts = []int{1, 2, 4}
				}
				for _, workers := range workerCounts {
					clear(full.Weights)
					if err := s.ApplyCSRCtx(ctx, full, workers); err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("%s kernel workers=%d", label, workers), full.Weights, want)
					b, err := graph.StartOwnedCSR(ctx, tc.c, nil, workers)
					if err != nil {
						t.Fatal(err)
					}
					g, err := b.Fill(ctx, s.EntryWeight(b.Header(), degrees, numEdges))
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("%s fill workers=%d", label, workers), g.Weights, want)
				}
			}
		}
	}
}
