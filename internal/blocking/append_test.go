package blocking

// Tests of the appendable-Collection invariants: after any sequence of
// appends, what the AppendResults reported (joined and created blocks,
// count changes, cardinality deltas) must agree with a fresh
// recomputation over the collection, the collection must stay
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

// tracker replays AppendResults onto the profile → blocks lists of the
// collection the appends started from.
type tracker struct{ perProf [][]int32 }

func newTracker(c *Collection) *tracker {
	inv := NewInverse(c)
	tr := &tracker{perProf: make([][]int32, c.NumProfiles)}
	for p := range tr.perProf {
		tr.perProf[p] = append([]int32(nil), inv.Of(int32(p))...)
	}
	return tr
}

// record folds one append in: the new profile's Joined list, and every
// block it materialised for the block's earlier members.
func (tr *tracker) record(t *testing.T, c *Collection, res AppendResult) {
	t.Helper()
	tr.perProf = append(tr.perProf, append([]int32(nil), res.Joined...))
	var changed []int32
	for _, bi := range res.Created {
		for _, m := range c.Block(int(bi)).P1 {
			if m != res.ID {
				tr.perProf[m] = append(tr.perProf[m], bi)
				changed = append(changed, m)
			}
		}
	}
	slices.Sort(changed)
	if !slices.Equal(changed, res.CountChanged) && len(changed)+len(res.CountChanged) > 0 {
		t.Fatalf("CountChanged %v, created blocks hold %v", res.CountChanged, changed)
	}
}

// checkAppenderInvariants compares everything the appends reported
// against a fresh recomputation over the live collection.
func checkAppenderInvariants(t *testing.T, a *Appender, tr *tracker, wantComparisons int64) {
	t.Helper()
	c := a.Collection()
	if err := c.Validate(); err != nil {
		t.Fatalf("collection invalid after appends: %v", err)
	}
	if got := c.AggregateCardinality(); got != wantComparisons {
		t.Fatalf("||B|| = %d, tracked deltas say %d", got, wantComparisons)
	}
	inv := NewInverse(c)
	for p := 0; p < c.NumProfiles; p++ {
		if got := inv.Of(int32(p)); !slices.Equal(got, tr.perProf[p]) {
			t.Fatalf("profile %d: blocks %v, appends reported %v", p, got, tr.perProf[p])
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
		comparisons := c.AggregateCardinality()
		for step := 0; step < 25; step++ {
			before := c.NumProfiles
			res := a.Append(randomKeys(rng, existing))
			if int(res.ID) != before || c.NumProfiles != before+1 {
				t.Fatalf("seed %d step %d: id %d, profiles %d -> %d", seed, step, res.ID, before, c.NumProfiles)
			}
			comparisons += res.ComparisonsDelta
			tr.record(t, c, res)
			for _, bi := range res.Created {
				found := false
				for _, ji := range res.Joined {
					if ji == bi {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d step %d: created block %d not in Joined", seed, step, bi)
				}
			}
		}
		checkAppenderInvariants(t, a, tr, comparisons)
	}
}

func TestAppenderPendingMaterialization(t *testing.T) {
	rng := stats.NewRNG(3)
	c := baseCollection(rng, 12, 10)
	a := NewAppender(c)
	tr := newTracker(c)
	comparisons := c.AggregateCardinality()
	blocksBefore := c.Len()
	appendKeys := func(keys []KeyEntropy) AppendResult {
		res := a.Append(keys)
		tr.record(t, c, res)
		comparisons += res.ComparisonsDelta
		return res
	}

	// First carrier of a fresh key: pending, no block, |B_i| excludes it.
	r1 := appendKeys([]KeyEntropy{{Key: "unique-xyz", Entropy: 2}})
	if len(r1.Joined) != 0 || len(r1.Created) != 0 || r1.ComparisonsDelta != 0 {
		t.Fatalf("first carrier joined %v created %v", r1.Joined, r1.Created)
	}
	if a.PendingKeys() != 1 || c.Len() != blocksBefore {
		t.Fatalf("pending %d, blocks %d -> %d", a.PendingKeys(), blocksBefore, c.Len())
	}
	if n := len(NewInverse(c).Of(r1.ID)); n != 0 {
		t.Fatalf("pending key counted in |B_i| = %d", n)
	}

	// Second carrier: the key materializes into a two-member block, and
	// the first carrier's block count grows (reported via CountChanged).
	r2 := appendKeys([]KeyEntropy{{Key: "unique-xyz", Entropy: 2}})
	if len(r2.Created) != 1 || r2.ComparisonsDelta != 1 {
		t.Fatalf("second carrier created %v delta %d", r2.Created, r2.ComparisonsDelta)
	}
	if a.PendingKeys() != 0 {
		t.Fatalf("pending keys left: %d", a.PendingKeys())
	}
	if len(r2.CountChanged) != 1 || r2.CountChanged[0] != r1.ID {
		t.Fatalf("CountChanged = %v, want [%d]", r2.CountChanged, r1.ID)
	}
	nb := c.Block(int(r2.Created[0]))
	if nb.Entropy != 2 || len(nb.P1) != 2 {
		t.Fatalf("materialized block %+v", nb)
	}

	// A profile joining several pending keys at once: CountChanged lists
	// the earlier member once per materialized block.
	r3 := appendKeys([]KeyEntropy{{Key: "pair-a", Entropy: 1}, {Key: "pair-b", Entropy: 1}})
	r4 := appendKeys([]KeyEntropy{{Key: "pair-a", Entropy: 1}, {Key: "pair-b", Entropy: 1}})
	if len(r4.Created) != 2 || len(r4.CountChanged) != 2 {
		t.Fatalf("double materialization: created %v countChanged %v", r4.Created, r4.CountChanged)
	}
	if r4.CountChanged[0] != r3.ID || r4.CountChanged[1] != r3.ID {
		t.Fatalf("CountChanged = %v, want [%d %d]", r4.CountChanged, r3.ID, r3.ID)
	}
	checkAppenderInvariants(t, a, tr, comparisons)
}

func TestAppenderCleanClean(t *testing.T) {
	rng := stats.NewRNG(5)
	c := RandomCollection(rng, model.CleanClean, 20, 16)
	a := NewAppender(c)
	tr := newTracker(c)
	comparisons := c.AggregateCardinality()
	existing := []string{c.Key(0), c.Key(1)}
	split := c.Split

	for i := 0; i < 10; i++ {
		res := a.Append(randomKeys(rng, existing))
		tr.record(t, c, res)
		comparisons += res.ComparisonsDelta
		if int(res.ID) < split {
			t.Fatalf("appended profile %d below split %d", res.ID, split)
		}
		// Appended profiles are E2-side: they must land in P2 only.
		for _, bi := range res.Joined {
			b := c.Block(int(bi))
			for _, p := range b.P1 {
				if p == res.ID {
					t.Fatalf("appended profile %d on E1 side of block %q", res.ID, b.Key)
				}
			}
		}
	}
	// Fresh keys among E2-only arrivals can never entail a cross-source
	// comparison, so they stay pending forever.
	if c.Split != split {
		t.Fatalf("split moved: %d -> %d", c.Split, split)
	}
	checkAppenderInvariants(t, a, tr, comparisons)
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
