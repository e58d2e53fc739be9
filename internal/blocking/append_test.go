package blocking

// Tests of the appendable-Collection invariants: after any sequence of
// appends, every profile's block memberships must be what its keys
// imply over the grown collection, the collection must stay
// Validate-clean, and pending keys must materialize exactly when they
// first entail a comparison.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"blast/internal/model"
	"blast/internal/stats"
)

// randomKeys draws a random key set (some existing, some fresh) for one
// append.
func randomKeys(rng *stats.RNG, existing []string) []KeyEntropy {
	var out []KeyEntropy
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		if len(existing) > 0 && rng.Intn(3) > 0 {
			out = append(out, KeyEntropy{Key: existing[rng.Intn(len(existing))], Entropy: 1})
		} else {
			out = append(out, KeyEntropy{Key: fmt.Sprintf("fresh%03d", rng.Intn(40)), Entropy: 0.5})
		}
	}
	// Occasionally duplicate a key within the call: Append must dedupe.
	if len(out) > 1 && rng.Intn(3) == 0 {
		out = append(out, out[0])
	}
	return out
}

// tracker records the key set of every appended profile beside the
// memberships the base profiles started with, which appends never
// change.
type tracker struct {
	base [][]int32
	keys [][]KeyEntropy
}

func newTracker(c *Collection) *tracker {
	inv := NewInverse(c)
	tr := &tracker{base: make([][]int32, c.NumProfiles)}
	for p := range tr.base {
		tr.base[p] = append([]int32(nil), inv.Of(int32(p))...)
	}
	return tr
}

// appendKeys appends one profile and records its keys.
func (tr *tracker) appendKeys(a *Appender, keys []KeyEntropy) int32 {
	tr.keys = append(tr.keys, keys)
	return a.Append(keys)
}

// checkAppenderInvariants recomputes every membership over the live
// collection: an appended profile is a member of exactly the blocks its
// keys name now — a key that was pending when it arrived and has
// materialized since included.
func checkAppenderInvariants(t *testing.T, a *Appender, tr *tracker) {
	t.Helper()
	c := a.Collection()
	if err := c.Validate(); err != nil {
		t.Fatalf("collection invalid after appends: %v", err)
	}
	if c.NumProfiles != len(tr.base)+len(tr.keys) {
		t.Fatalf("%d profiles, %d base + %d appended", c.NumProfiles, len(tr.base), len(tr.keys))
	}
	inv := NewInverse(c)
	for p := 0; p < c.NumProfiles; p++ {
		var want []int32
		if p < len(tr.base) {
			want = tr.base[p]
		} else {
			for _, ke := range tr.keys[p-len(tr.base)] {
				if bi, ok := c.lookup(ke.Key); ok && !slices.Contains(want, bi) {
					want = append(want, bi)
				}
			}
			slices.Sort(want)
		}
		if got := inv.Of(int32(p)); !slices.Equal(got, want) {
			t.Fatalf("profile %d: blocks %v, its keys name %v", p, got, want)
		}
	}
	// No materialized block may be comparison-free, and every block key
	// must be unique and indexed.
	seen := make(map[string]bool)
	for i := 0; i < c.Len(); i++ {
		b := c.Block(i)
		if bi, ok := c.lookup(b.Key); !ok || int(bi) != i {
			t.Fatalf("block %q not indexed at %d", b.Key, i)
		}
		if b.Comparisons() == 0 {
			t.Fatalf("block %q entails no comparisons", b.Key)
		}
		if seen[b.Key] {
			t.Fatalf("duplicate block key %q", b.Key)
		}
		seen[b.Key] = true
	}
}

// baseCollection builds a small cleaned dirty collection to append onto.
func baseCollection(rng *stats.RNG, profiles, blocks int) *Collection {
	c := RandomCollection(rng, model.Dirty, profiles, blocks)
	// Give blocks realistic keys and run the cleaning workflow so the
	// appender starts from the same shape the pipeline produces.
	return CleanWorkflow(c, 0.8, 0.9)
}

func TestAppenderRandomizedInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := stats.NewRNG(seed * 7919)
		c := baseCollection(rng, 20+rng.Intn(30), 15+rng.Intn(30))
		existing := make([]string, 0, c.Len())
		for i := 0; i < c.Len(); i++ {
			existing = append(existing, c.Key(i))
		}
		a := NewAppender(c)
		tr := newTracker(c)
		for step := 0; step < 25; step++ {
			before := c.NumProfiles
			if id := tr.appendKeys(a, randomKeys(rng, existing)); int(id) != before || c.NumProfiles != before+1 {
				t.Fatalf("seed %d step %d: id %d, profiles %d -> %d", seed, step, id, before, c.NumProfiles)
			}
		}
		checkAppenderInvariants(t, a, tr)
	}
}

func TestAppenderPendingMaterialization(t *testing.T) {
	rng := stats.NewRNG(3)
	c := baseCollection(rng, 12, 10)
	a := NewAppender(c)
	tr := newTracker(c)
	blocksBefore := c.Len()
	comparisons := c.AggregateCardinality()
	blocksOf := func(id int32) int { return len(NewInverse(c).Of(id)) }

	// First carrier of a fresh key: pending, no block, |B_i| excludes it.
	r1 := tr.appendKeys(a, []KeyEntropy{{Key: "unique-xyz", Entropy: 2}})
	if a.PendingKeys() != 1 || c.Len() != blocksBefore || c.AggregateCardinality() != comparisons {
		t.Fatalf("pending %d, blocks %d -> %d", a.PendingKeys(), blocksBefore, c.Len())
	}
	if n := blocksOf(r1); n != 0 {
		t.Fatalf("pending key counted in |B_i| = %d", n)
	}

	// Second carrier: the key materializes into a two-member block, and
	// the first carrier's block count grows with it.
	r2 := tr.appendKeys(a, []KeyEntropy{{Key: "unique-xyz", Entropy: 2}})
	if c.Len() != blocksBefore+1 || c.AggregateCardinality() != comparisons+1 {
		t.Fatalf("second carrier: blocks %d -> %d, ||B|| %d -> %d", blocksBefore, c.Len(), comparisons, c.AggregateCardinality())
	}
	if a.PendingKeys() != 0 {
		t.Fatalf("pending keys left: %d", a.PendingKeys())
	}
	if blocksOf(r1) != 1 || blocksOf(r2) != 1 {
		t.Fatalf("|B_i| of the carriers = %d, %d, want 1, 1", blocksOf(r1), blocksOf(r2))
	}
	nb := c.Block(blocksBefore)
	if nb.Entropy != 2 || len(nb.P1) != 2 {
		t.Fatalf("materialized block %+v", nb)
	}

	// A profile joining several pending keys at once materializes a block
	// for each, and the earlier carrier joins both.
	r3 := tr.appendKeys(a, []KeyEntropy{{Key: "pair-a", Entropy: 1}, {Key: "pair-b", Entropy: 1}})
	tr.appendKeys(a, []KeyEntropy{{Key: "pair-a", Entropy: 1}, {Key: "pair-b", Entropy: 1}})
	if c.Len() != blocksBefore+3 || blocksOf(r3) != 2 {
		t.Fatalf("double materialization: blocks %d -> %d, |B_i| of the first carrier %d", blocksBefore, c.Len(), blocksOf(r3))
	}
	checkAppenderInvariants(t, a, tr)
}

func TestAppenderCleanClean(t *testing.T) {
	rng := stats.NewRNG(5)
	c := RandomCollection(rng, model.CleanClean, 20, 16)
	a := NewAppender(c)
	tr := newTracker(c)
	existing := []string{c.Key(0), c.Key(1)}
	split := c.Split

	for i := 0; i < 10; i++ {
		id := tr.appendKeys(a, randomKeys(rng, existing))
		if int(id) < split {
			t.Fatalf("appended profile %d below split %d", id, split)
		}
		// Appended profiles are E2-side: they must land in P2 only.
		for _, bi := range NewInverse(c).Of(id) {
			b := c.Block(int(bi))
			if slices.Contains(b.P1, id) {
				t.Fatalf("appended profile %d on E1 side of block %q", id, b.Key)
			}
		}
	}
	// Fresh keys among E2-only arrivals can never entail a cross-source
	// comparison, so they stay pending forever.
	if c.Split != split {
		t.Fatalf("split moved: %d -> %d", c.Split, split)
	}
	checkAppenderInvariants(t, a, tr)
}

func TestAppenderDeterminism(t *testing.T) {
	build := func() *Collection {
		rng := stats.NewRNG(11)
		c := baseCollection(rng, 18, 14)
		a := NewAppender(c)
		for i := 0; i < 12; i++ {
			a.Append(randomKeys(rng, []string{c.Key(0), c.Key(2)}))
		}
		return c
	}
	c1, c2 := build(), build()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("identical append sequences produced different collections")
	}
}
