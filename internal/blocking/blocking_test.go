package blocking

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"blast/internal/datasets"
	"blast/internal/model"
	"blast/internal/text"
)

// blockByKey finds a block by key.
func blockByKey(t *testing.T, c *Collection, key string) *Block {
	t.Helper()
	for i := 0; i < c.Len(); i++ {
		if b := c.Block(i); b.Key == key {
			return &b
		}
	}
	t.Fatalf("block %q not found; have %d blocks", key, c.Len())
	return nil
}

func ids(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTokenBlockingPaperFigure1 verifies that Token Blocking over the
// Figure 1 profiles produces exactly the 12 blocks of Figure 1b.
func TestTokenBlockingPaperFigure1(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)

	want := map[string][]int{
		"ellen":  {1, 3},
		"smith":  {1, 3},
		"1985":   {0, 3},
		"car":    {0, 2},
		"ny":     {1, 3},
		"main":   {0, 2},
		"abram":  {0, 1, 2, 3},
		"street": {0, 3},
		"jr":     {0, 2},
		"85":     {1, 2},
		"st":     {1, 2},
		"retail": {1, 2},
	}
	if got := c.Len(); got != len(want) {
		keys := make([]string, 0, c.Len())
		for i := 0; i < c.Len(); i++ {
			keys = append(keys, c.Key(i))
		}
		t.Fatalf("got %d blocks %v, want %d", got, keys, len(want))
	}
	for key, profiles := range want {
		b := blockByKey(t, c, key)
		if !equalInts(ids(b.P1), profiles) {
			t.Errorf("block %q = %v, want %v", key, ids(b.P1), profiles)
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Table 1 of the paper: n++ = 12 blocks, |B_p1| = 6, |B_p3| = 7.
	counts := c.ProfileBlockCounts()
	if counts[0] != 6 || counts[2] != 7 {
		t.Errorf("|B_p1| = %d, |B_p3| = %d; want 6 and 7", counts[0], counts[2])
	}
}

func TestBlockComparisonsDirty(t *testing.T) {
	b := Block{P1: []int32{1, 2, 3, 4}}
	if got := b.Comparisons(); got != 6 {
		t.Errorf("dirty comparisons = %d, want 6", got)
	}
	var pairs int
	b.ForEachPair(func(u, v int32) {
		if u >= v {
			t.Errorf("dirty pair (%d,%d) not ordered", u, v)
		}
		pairs++
	})
	if int64(pairs) != b.Comparisons() {
		t.Errorf("ForEachPair visited %d, want %d", pairs, b.Comparisons())
	}
}

func TestBlockComparisonsCleanClean(t *testing.T) {
	b := Block{P1: []int32{1, 2}, P2: []int32{10, 11, 12}}
	if got := b.Comparisons(); got != 6 {
		t.Errorf("clean-clean comparisons = %d, want 6", got)
	}
	var pairs int
	b.ForEachPair(func(u, v int32) { pairs++ })
	if pairs != 6 {
		t.Errorf("ForEachPair visited %d, want 6", pairs)
	}
}

func cleanDataset() *model.Dataset {
	e1 := model.NewCollection("A")
	pa := model.Profile{ID: "a0"}
	pa.Add("title", "deep learning methods")
	e1.Append(pa)
	pb := model.Profile{ID: "a1"}
	pb.Add("title", "database systems")
	e1.Append(pb)

	e2 := model.NewCollection("B")
	pc := model.Profile{ID: "b0"}
	pc.Add("name", "deep learning")
	e2.Append(pc)
	pd := model.Profile{ID: "b1"}
	pd.Add("name", "graph systems")
	e2.Append(pd)

	g := model.NewGroundTruth()
	g.Add(0, 2)
	return &model.Dataset{Name: "mini", Kind: model.CleanClean, E1: e1, E2: e2, Truth: g}
}

func TestTokenBlockingCleanClean(t *testing.T) {
	ds := cleanDataset()
	c := TokenBlocking(ds)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// "deep" and "learning" bridge a0-b0; "systems" bridges a1-b1.
	// "database", "methods", "graph" are one-sided and must be dropped.
	for _, key := range []string{"database", "methods", "graph"} {
		if _, ok := c.lookup(key); ok {
			t.Errorf("one-sided block %q survived", key)
		}
	}
	deep := blockByKey(t, c, "deep")
	if !equalInts(ids(deep.P1), []int{0}) || !equalInts(ids(deep.P2), []int{2}) {
		t.Errorf("deep block = %v | %v", ids(deep.P1), ids(deep.P2))
	}
	systems := blockByKey(t, c, "systems")
	if systems.Comparisons() != 1 {
		t.Errorf("systems comparisons = %d, want 1", systems.Comparisons())
	}
}

func TestBuildDeduplicatesWithinProfile(t *testing.T) {
	e := model.NewCollection("s")
	p := model.Profile{ID: "p"}
	p.Add("a", "apple apple apple")
	p.Add("b", "apple")
	e.Append(p)
	q := model.Profile{ID: "q"}
	q.Add("a", "apple pie")
	e.Append(q)
	ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	c := TokenBlocking(ds)
	b := blockByKey(t, c, "apple")
	if len(b.P1) != 2 {
		t.Errorf("apple block has %d entries, want 2 (deduplicated)", len(b.P1))
	}
}

func TestSchemaKeyStandardBlocking(t *testing.T) {
	ds := cleanDataset()
	align := map[[2]string]string{
		{"0", "title"}: "t",
		{"1", "name"}:  "t",
	}
	c := Build(ds, text.NewTokenizer(), SchemaKey(align))
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Same pairs as token blocking here, but keys carry the alignment id.
	if _, ok := c.lookup("deep"); ok {
		t.Error("SchemaKey should qualify keys, found bare token")
	}
	b := blockByKey(t, c, "deep\x1ft")
	if b.Comparisons() != 1 {
		t.Errorf("aligned deep block comparisons = %d, want 1", b.Comparisons())
	}
}

func TestSchemaKeySkipsUnalignedAttributes(t *testing.T) {
	ds := cleanDataset()
	align := map[[2]string]string{{"0", "title"}: "t"} // E2's name not aligned
	c := Build(ds, text.NewTokenizer(), SchemaKey(align))
	if c.Len() != 0 {
		t.Errorf("unaligned E2 should yield no cross blocks, got %d", c.Len())
	}
}

func TestAggregateCardinality(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	// 11 blocks of 2 profiles (1 comparison) + abram with 4 profiles (6).
	if got := c.AggregateCardinality(); got != 17 {
		t.Errorf("AggregateCardinality = %d, want 17", got)
	}
}

func TestDistinctPairs(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	pairs := c.DistinctPairs()
	if len(pairs) != 6 {
		t.Errorf("distinct pairs = %d, want 6 (complete graph on 4 nodes)", len(pairs))
	}
}

func TestPurgeDropsHugeBlocks(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	// abram contains all 4 profiles = 100% > 50%.
	p := Purge(c, 0.5)
	if _, ok := p.lookup("abram"); ok {
		t.Error("Purge kept the abram block (4/4 profiles)")
	}
	if p.Len() != c.Len()-1 {
		t.Errorf("Purge dropped %d blocks, want 1", c.Len()-p.Len())
	}
	// Input untouched.
	if c.Len() != 12 {
		t.Error("Purge modified its input")
	}
}

func TestPurgeDefaultRatio(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	if got, want := Purge(c, 0).Len(), Purge(c, 0.5).Len(); got != want {
		t.Errorf("default ratio mismatch: %d vs %d", got, want)
	}
}

func TestFilterNeverIncreasesCardinality(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	f := Filter(c, 0.8)
	if f.AggregateCardinality() > c.AggregateCardinality() {
		t.Errorf("Filter increased ||B||: %d -> %d", c.AggregateCardinality(), f.AggregateCardinality())
	}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFilterRemovesLeastImportantBlocks(t *testing.T) {
	// p appears in blocks of size 2 and one huge block; with a tight
	// ratio the huge (least important) membership goes first.
	e := model.NewCollection("s")
	mk := func(id, val string) {
		p := model.Profile{ID: id}
		p.Add("a", val)
		e.Append(p)
	}
	mk("p0", "rare shared") // rare: p0,p1 ; shared: everyone
	mk("p1", "rare shared")
	mk("p2", "shared")
	mk("p3", "shared")
	mk("p4", "shared")
	ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	c := TokenBlocking(ds)
	f := Filter(c, 0.5)
	// p0 and p1 keep only their smallest block: "rare".
	for i := 0; i < f.Len(); i++ {
		if b := f.Block(i); b.Key == "shared" {
			for _, p := range b.P1 {
				if p == 0 || p == 1 {
					t.Errorf("profile %d kept its least-important membership", p)
				}
			}
		}
	}
	rare := blockByKey(t, f, "rare")
	if len(rare.P1) != 2 {
		t.Errorf("rare block = %v, want both members kept", ids(rare.P1))
	}
}

func TestFilterKeepsAtLeastOneBlockPerProfile(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	f := Filter(c, 0.01) // pathological ratio
	counts := f.ProfileBlockCounts()
	for p, n := range counts {
		if n < 1 {
			t.Errorf("profile %d lost all blocks", p)
		}
	}
}

func TestFilterDefaultRatio(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	if got, want := Filter(c, -1).AggregateCardinality(), Filter(c, 0.8).AggregateCardinality(); got != want {
		t.Errorf("default ratio mismatch: %d vs %d", got, want)
	}
}

func TestCleanWorkflow(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	w := CleanWorkflow(c, 0.5, 0.8)
	if w.AggregateCardinality() >= c.AggregateCardinality() {
		t.Errorf("workflow should reduce ||B||: %d -> %d", c.AggregateCardinality(), w.AggregateCardinality())
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestCloneIndependence: clones share the base arrays and nothing else —
// appends to either side of a Clone (base blocks grown, pending keys
// materialised) never show in the other, and neither writes the base.
func TestCloneIndependence(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	base := append([]int32(nil), c.members...)
	want := func(c *Collection) []Block {
		out := make([]Block, c.Len())
		for i := range out {
			out[i] = c.Block(i)
		}
		return out
	}
	before := want(c)
	cl := c.Clone()
	if &cl.members[0] != &c.members[0] {
		t.Fatal("Clone copied the base arrays")
	}
	a := NewAppender(cl)
	a.Append([]KeyEntropy{{Key: "abram", Entropy: 1}, {Key: "fresh", Entropy: 1}})
	a.Append([]KeyEntropy{{Key: "fresh", Entropy: 1}})
	if cl.Len() != c.Len()+1 || cl.NumProfiles != c.NumProfiles+2 {
		t.Fatalf("clone: %d blocks %d profiles", cl.Len(), cl.NumProfiles)
	}
	if !reflect.DeepEqual(want(c), before) || !reflect.DeepEqual(c.members, base) {
		t.Fatal("appends to a clone reached the original")
	}
	grown := want(cl)
	cl2 := cl.Clone()
	NewAppender(cl2).Append([]KeyEntropy{{Key: "abram", Entropy: 1}, {Key: "fresh", Entropy: 1}})
	if !reflect.DeepEqual(want(cl), grown) {
		t.Fatal("appends to a clone of a clone reached its tail")
	}
	if err := cl2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := datasets.PaperExample()
	for name, corrupt := range map[string]func(c *Collection){
		"out-of-range id":         func(c *Collection) { c.members[1] = 999 },
		"duplicate id in block":   func(c *Collection) { c.members[1] = c.members[0] },
		"descending ids":          func(c *Collection) { c.members[0], c.members[1] = c.members[1], c.members[0] },
		"P2 on dirty block":       func(c *Collection) { c.mid[0]-- },
		"keys out of order":       func(c *Collection) { c.keys = "z" + c.keys[1:] },
		"non-monotone offsets":    func(c *Collection) { c.start[1], c.mid[0] = c.start[2]+1, c.start[2]+1 },
		"truncated members":       func(c *Collection) { c.members = c.members[:len(c.members)-1] },
		"appended block shadowed": func(c *Collection) { c.tail = &tail{blocks: []Block{{Key: c.Key(0), P1: []int32{0, 1}}}} },
	} {
		c := TokenBlocking(ds)
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: fresh collection invalid: %v", name, err)
		}
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %s", name)
		}
	}
}

func TestInverseConsistent(t *testing.T) {
	ds := datasets.PaperExample()
	c := TokenBlocking(ds)
	inv := NewInverse(c)
	counts := c.ProfileBlockCounts()
	if len(inv.Blocks) != int(inv.Offsets[c.NumProfiles]) || cap(inv.Blocks) != len(inv.Blocks) {
		t.Fatalf("inverse holds %d ids for %d memberships", len(inv.Blocks), inv.Offsets[c.NumProfiles])
	}
	for p := 0; p < c.NumProfiles; p++ {
		per := inv.Of(int32(p))
		if len(per) != int(counts[p]) {
			t.Errorf("profile %d: lists %d blocks, counts %d", p, len(per), counts[p])
		}
		if !sort.SliceIsSorted(per, func(i, j int) bool { return per[i] < per[j] }) {
			t.Errorf("profile %d: blocks %v not ascending", p, per)
		}
		for _, bid := range per {
			b := c.Block(int(bid))
			found := false
			for _, q := range b.P1 {
				if int(q) == p {
					found = true
				}
			}
			for _, q := range b.P2 {
				if int(q) == p {
					found = true
				}
			}
			if !found {
				t.Errorf("profile %d listed in block %d but absent", p, bid)
			}
		}
	}
}

// TestPurgeFilterMonotonicityProperty: purging and filtering never
// increase the number of blocks or the aggregate cardinality, for
// arbitrary small dirty datasets.
func TestPurgeFilterMonotonicityProperty(t *testing.T) {
	f := func(vals []string, ratioPct uint8) bool {
		e := model.NewCollection("s")
		for i, v := range vals {
			p := model.Profile{ID: string(rune('a' + i%26))}
			p.Add("x", v)
			e.Append(p)
		}
		if e.Len() == 0 {
			return true
		}
		ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
		c := TokenBlocking(ds)
		ratio := float64(ratioPct%100+1) / 100
		p := Purge(c, ratio)
		fl := Filter(c, ratio)
		return p.Len() <= c.Len() &&
			p.AggregateCardinality() <= c.AggregateCardinality() &&
			fl.AggregateCardinality() <= c.AggregateCardinality() &&
			p.Validate() == nil && fl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuildSortedDeterministic(t *testing.T) {
	ds := datasets.PaperExample()
	a := TokenBlocking(ds)
	b := TokenBlocking(ds)
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic block count")
	}
	for i := 0; i < a.Len(); i++ {
		if a.Key(i) != b.Key(i) {
			t.Fatal("nondeterministic block order")
		}
	}
	for i := 1; i < a.Len(); i++ {
		if a.Key(i-1) >= a.Key(i) {
			t.Fatal("blocks not sorted by key")
		}
	}
}
