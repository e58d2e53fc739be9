package attr

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/lsh"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/text"
)

func hashes(tokens ...string) []uint64 {
	hs := make([]uint64, len(tokens))
	for i, t := range tokens {
		hs[i] = lsh.TokenHash(t)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

func TestJaccardBasics(t *testing.T) {
	a := hashes("x", "y", "z")
	b := hashes("y", "z", "w")
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("self Jaccard = %v, want 1", got)
	}
	if got := Jaccard(a, nil); got != 0 {
		t.Errorf("empty Jaccard = %v, want 0", got)
	}
	if got := Jaccard(hashes("p"), hashes("q")); got != 0 {
		t.Errorf("disjoint Jaccard = %v, want 0", got)
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		mk := func(vs []uint16) []uint64 {
			m := make(map[uint64]bool)
			for _, v := range vs {
				m[uint64(v)] = true
			}
			out := make([]uint64, 0, len(m))
			for v := range m {
				out = append(out, v)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := mk(xs), mk(ys)
		s1, s2 := Jaccard(a, b), Jaccard(b, a)
		if s1 != s2 {
			return false // symmetry
		}
		if s1 < 0 || s1 > 1 {
			return false // bounds
		}
		if len(a) > 0 && Jaccard(a, a) != 1 {
			return false // identity
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtractProfilesPaperExample(t *testing.T) {
	ds := datasets.PaperExample()
	ps := ExtractProfiles(ds, text.NewTokenizer())
	// 17 distinct attribute names in Figure 1a ("Loc" and "loc" differ).
	if len(ps) != 17 {
		t.Fatalf("extracted %d attribute profiles, want 17", len(ps))
	}
	// Sorted by (source, name).
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Ref.Name >= ps[i].Ref.Name {
			t.Fatal("profiles not sorted by name")
		}
	}
	byName := make(map[string]Profile)
	for _, p := range ps {
		byName[p.Ref.Name] = p
	}
	name := byName["Name"] // "John Abram Jr"
	if len(name.Tokens) != 3 || name.Count != 3 {
		t.Errorf("Name profile tokens=%d count=%d, want 3/3", len(name.Tokens), name.Count)
	}
	// Uniform 3 tokens: entropy log2(3).
	if math.Abs(name.Entropy-math.Log2(3)) > 1e-12 {
		t.Errorf("Name entropy = %v, want log2(3)", name.Entropy)
	}
	// "year" has values 1985 and 85: two tokens, entropy 1 bit.
	year := byName["year"]
	if math.Abs(year.Entropy-1) > 1e-12 {
		t.Errorf("year entropy = %v, want 1", year.Entropy)
	}
}

// TestExtractProfilesMatchesMapCount: the sort-and-run-length extraction
// yields, bit for bit, the profiles of counting occurrences in a map and
// summing the entropy over the token-hash-ordered frequencies.
func TestExtractProfilesMatchesMapCount(t *testing.T) {
	tr := text.NewTokenizer()
	for _, ds := range []*model.Dataset{datasets.PaperExample(), datasets.MOV(0.01, 7), datasets.AR1(0.05, 3)} {
		byRef := make(map[Ref]map[uint64]int)
		for source, c := range ds.Sources() {
			for i := range c.Profiles {
				for _, pair := range c.Profiles[i].Pairs {
					ref := Ref{Source: source, Name: pair.Name}
					if byRef[ref] == nil {
						byRef[ref] = make(map[uint64]int)
					}
					for _, tok := range tr.Terms(pair.Value) {
						byRef[ref][lsh.TokenHash(tok)]++
					}
				}
			}
		}
		got := ExtractProfiles(ds, tr)
		if len(got) != len(byRef) {
			t.Fatalf("%s: %d profiles, want %d", ds.Name, len(got), len(byRef))
		}
		for _, p := range got {
			want := Profile{Ref: p.Ref}
			for tok := range byRef[p.Ref] {
				want.Tokens = append(want.Tokens, tok)
			}
			slices.Sort(want.Tokens)
			for _, tok := range want.Tokens {
				want.Freqs = append(want.Freqs, byRef[p.Ref][tok])
				want.Count += byRef[p.Ref][tok]
			}
			want.Entropy = stats.Entropy(want.Freqs)
			if !reflect.DeepEqual(p, want) {
				t.Fatalf("%s %v: profile differs from the map count:\n got %+v\nwant %+v", ds.Name, p.Ref, p, want)
			}
		}
	}
}

func TestExtractProfilesCleanCleanSeparatesSources(t *testing.T) {
	e1 := model.NewCollection("A")
	p := model.Profile{ID: "1"}
	p.Add("name", "alice")
	e1.Append(p)
	e2 := model.NewCollection("B")
	q := model.Profile{ID: "2"}
	q.Add("name", "bob")
	e2.Append(q)
	ds := &model.Dataset{Name: "d", Kind: model.CleanClean, E1: e1, E2: e2, Truth: model.NewGroundTruth()}
	ps := ExtractProfiles(ds, text.NewTokenizer())
	if len(ps) != 2 {
		t.Fatalf("want two profiles for same-named attributes of different sources, got %d", len(ps))
	}
	if ps[0].Ref.Source == ps[1].Ref.Source {
		t.Error("sources not distinguished")
	}
}

// mkProfiles builds synthetic attribute profiles from (source, name, tokens).
func mkProfiles(rows []struct {
	src    int
	name   string
	tokens []string
}) []Profile {
	ps := make([]Profile, len(rows))
	for i, r := range rows {
		ps[i] = Profile{Ref: Ref{Source: r.src, Name: r.name}, Tokens: hashes(r.tokens...), Entropy: 1}
	}
	return ps
}

func TestLMIClustersSimilarAttributes(t *testing.T) {
	rows := []struct {
		src    int
		name   string
		tokens []string
	}{
		{0, "name", []string{"alice", "bob", "carol", "dave", "ellen", "frank"}},
		{0, "street", []string{"main", "oak", "pine", "elm", "maple"}},
		{1, "full_name", []string{"alice", "bob", "carol", "dave", "ellen", "gina"}},
		{1, "location", []string{"main", "oak", "pine", "elm", "birch"}},
		{1, "isbn", []string{"111", "222", "333"}},
	}
	ps := mkProfiles(rows)
	part := LMI(ps, model.CleanClean, DefaultConfig())

	nameC, ok1 := part.ClusterOf(0, "name")
	fullC, ok2 := part.ClusterOf(1, "full_name")
	if !ok1 || !ok2 || nameC != fullC || nameC == GlueClusterID {
		t.Errorf("name/full_name clusters: %d/%d (%v,%v), want same non-glue", nameC, fullC, ok1, ok2)
	}
	stC, _ := part.ClusterOf(0, "street")
	locC, _ := part.ClusterOf(1, "location")
	if stC != locC || stC == GlueClusterID || stC == nameC {
		t.Errorf("street/location clusters: %d/%d, want same non-glue distinct from names", stC, locC)
	}
	isbnC, ok := part.ClusterOf(1, "isbn")
	if !ok || isbnC != GlueClusterID {
		t.Errorf("isbn cluster = %d (%v), want glue", isbnC, ok)
	}
	if part.NumClusters() != 3 {
		t.Errorf("NumClusters = %d, want 3 (2 + glue)", part.NumClusters())
	}
}

func TestLMIRequiresMutualCandidates(t *testing.T) {
	// A == B identical; C half-overlapping with both. C's best is A/B but
	// A and B prefer each other, so LMI must leave C out; AC chains it in.
	rows := []struct {
		src    int
		name   string
		tokens []string
	}{
		{0, "A", []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"}},
		{1, "B", []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"}},
		{0, "C", []string{"t1", "t2", "t3", "t4", "u1", "u2", "u3", "u4"}},
	}
	ps := mkProfiles(rows)

	lmi := LMI(ps, model.CleanClean, DefaultConfig())
	aC, _ := lmi.ClusterOf(0, "A")
	bC, _ := lmi.ClusterOf(1, "B")
	cC, _ := lmi.ClusterOf(0, "C")
	if aC != bC || aC == GlueClusterID {
		t.Errorf("LMI should cluster A,B together (got %d,%d)", aC, bC)
	}
	if cC != GlueClusterID {
		t.Errorf("LMI put C in cluster %d, want glue (mutuality violated)", cC)
	}

	ac := AC(ps, model.CleanClean, DefaultConfig())
	aC2, _ := ac.ClusterOf(0, "A")
	cC2, _ := ac.ClusterOf(0, "C")
	if aC2 != cC2 {
		t.Errorf("AC should chain C into A's cluster (got %d vs %d)", aC2, cC2)
	}
}

func TestLMIGlueDisabledDropsAttributes(t *testing.T) {
	rows := []struct {
		src    int
		name   string
		tokens []string
	}{
		{0, "a", []string{"x", "y"}},
		{1, "b", []string{"x", "y"}},
		{0, "lonely", []string{"zzz"}},
	}
	ps := mkProfiles(rows)
	cfg := DefaultConfig()
	cfg.Glue = false
	part := LMI(ps, model.CleanClean, cfg)
	if _, ok := part.ClusterOf(0, "lonely"); ok {
		t.Error("glue disabled: unclustered attribute should not participate")
	}
	if _, ok := part.ClusterOf(0, "a"); !ok {
		t.Error("clustered attribute must participate")
	}
}

func TestLMIPaperExampleDisambiguatesAbram(t *testing.T) {
	// Running real LMI on the Figure 1 profiles reproduces Figure 2a: the
	// name attributes of p1/p3 and the address attributes of p2/p4 fall
	// in different clusters, splitting the "abram" block into {p1,p3} and
	// {p2,p4}.
	ds := datasets.PaperExample()
	ps := ExtractProfiles(ds, text.NewTokenizer())
	part := LMI(ps, ds.Kind, DefaultConfig())

	nameC, ok1 := part.ClusterOf(0, "Name")   // p1: "John Abram Jr"
	name2C, ok2 := part.ClusterOf(0, "name2") // p3: "Abram"
	mailC, ok3 := part.ClusterOf(0, "mail")   // p2: "Abram st. 30 NY"
	locC, ok4 := part.ClusterOf(0, "loc")     // p4: "Abram street NY"
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("paper attributes missing from partitioning")
	}
	if nameC != name2C {
		t.Errorf("Name and name2 in clusters %d vs %d, want same", nameC, name2C)
	}
	if mailC != locC {
		t.Errorf("mail and loc in clusters %d vs %d, want same", mailC, locC)
	}
	if nameC == mailC {
		t.Error("name cluster and address cluster must differ for Abram disambiguation")
	}

	// The split blocks of Figure 2a.
	c := blocking.Build(ds, text.NewTokenizer(), part.KeyFunc())
	var abramBlocks [][]int32
	for i := 0; i < c.Len(); i++ {
		if key := c.Key(i); len(key) >= 5 && key[:5] == "abram" {
			abramBlocks = append(abramBlocks, c.Block(i).P1)
		}
	}
	if len(abramBlocks) != 2 {
		t.Fatalf("abram split into %d blocks, want 2", len(abramBlocks))
	}
	members := func(b []int32) string { return fmt.Sprint(b) }
	got := map[string]bool{}
	for _, b := range abramBlocks {
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		got[members(b)] = true
	}
	if !got["[0 2]"] || !got["[1 3]"] {
		t.Errorf("abram blocks = %v, want {p1,p3} and {p2,p4}", got)
	}
}

func TestLMIClustersAreDisjointProperty(t *testing.T) {
	ds := datasets.PaperExample()
	ps := ExtractProfiles(ds, text.NewTokenizer())
	part := LMI(ps, ds.Kind, DefaultConfig())
	seen := make(map[Ref]int)
	for _, c := range part.Clusters {
		for _, m := range c.Members {
			if prev, dup := seen[m]; dup {
				t.Errorf("attribute %v in clusters %d and %d", m, prev, c.ID)
			}
			seen[m] = c.ID
		}
	}
	// Glue enabled: every attribute must be assigned.
	if len(seen) != len(ps) {
		t.Errorf("assigned %d of %d attributes", len(seen), len(ps))
	}
}

func TestPartitioningEntropy(t *testing.T) {
	ps := []Profile{
		{Ref: Ref{0, "a"}, Tokens: hashes("x", "y"), Entropy: 3.5},
		{Ref: Ref{1, "b"}, Tokens: hashes("x", "y"), Entropy: 1.5},
		{Ref: Ref{0, "c"}, Tokens: hashes("qq"), Entropy: 2.0},
	}
	part := LMI(ps, model.CleanClean, DefaultConfig())
	id, ok := part.ClusterOf(0, "a")
	if !ok || id == GlueClusterID {
		t.Fatalf("a not clustered: %d %v", id, ok)
	}
	// Aggregate entropy = mean(3.5, 1.5) = 2.5.
	if got := part.Entropy(id); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("cluster entropy = %v, want 2.5", got)
	}
	// Glue entropy = 2.0 (single member).
	if got := part.Entropy(GlueClusterID); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("glue entropy = %v, want 2.0", got)
	}
	// Out-of-range ids degrade to 1.
	if part.Entropy(99) != 1 || part.Entropy(-1) != 1 {
		t.Error("unknown cluster entropy should be 1")
	}
}

func TestKeyFuncQualifiesTokens(t *testing.T) {
	ps := []Profile{
		{Ref: Ref{0, "a"}, Tokens: hashes("x"), Entropy: 2},
		{Ref: Ref{1, "b"}, Tokens: hashes("x"), Entropy: 4},
	}
	part := LMI(ps, model.CleanClean, DefaultConfig())
	kf := part.KeyFunc()
	k1, h1, ok1 := kf(0, "a", "tok")
	k2, h2, ok2 := kf(1, "b", "tok")
	if !ok1 || !ok2 {
		t.Fatal("clustered attributes must emit keys")
	}
	if k1 != k2 {
		t.Errorf("same-cluster keys differ: %q vs %q", k1, k2)
	}
	if h1 != 3 || h2 != 3 {
		t.Errorf("key entropies = %v,%v, want aggregate 3", h1, h2)
	}
	if _, _, ok := kf(0, "unknown", "tok"); ok {
		t.Error("unknown attribute should not emit keys")
	}
}

func TestLSHStepMatchesExhaustiveOnSimilarPairs(t *testing.T) {
	// 30 attribute pairs with ~0.8 similarity: LSH at threshold ~0.5 must
	// recover the same partitioning as the exhaustive scan.
	var rows []struct {
		src    int
		name   string
		tokens []string
	}
	for i := 0; i < 30; i++ {
		base := make([]string, 10)
		for j := range base {
			base[j] = fmt.Sprintf("t%02d_%d", i, j)
		}
		variant := append([]string{fmt.Sprintf("extra%d", i)}, base[:9]...)
		rows = append(rows, struct {
			src    int
			name   string
			tokens []string
		}{0, fmt.Sprintf("a%02d", i), base})
		rows = append(rows, struct {
			src    int
			name   string
			tokens []string
		}{1, fmt.Sprintf("b%02d", i), variant})
	}
	ps := mkProfiles(rows)

	exact := LMI(ps, model.CleanClean, DefaultConfig())
	cfgLSH := DefaultConfig()
	cfgLSH.LSH = &LSHConfig{Rows: 5, Bands: 30, Seed: 7}
	approx := LMI(ps, model.CleanClean, cfgLSH)

	if exact.NumClusters() != approx.NumClusters() {
		t.Fatalf("clusters: exhaustive %d vs LSH %d", exact.NumClusters(), approx.NumClusters())
	}
	for _, p := range ps {
		e, _ := exact.ClusterOf(p.Ref.Source, p.Ref.Name)
		a, _ := approx.ClusterOf(p.Ref.Source, p.Ref.Name)
		eg := e == GlueClusterID
		ag := a == GlueClusterID
		if eg != ag {
			t.Errorf("attribute %v: glue status differs (exact %d, lsh %d)", p.Ref, e, a)
		}
	}
}

func TestLSHStepPrunesLowSimilarityPairs(t *testing.T) {
	// Two attributes with Jaccard ~0.18: a high LSH threshold should make
	// them invisible to LMI even though the exhaustive scan clusters them
	// (their best match is each other).
	rows := []struct {
		src    int
		name   string
		tokens []string
	}{
		{0, "a", []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}},
		{1, "b", []string{"1", "2", "3", "x4", "x5", "x6", "x7", "x8", "x9", "x10"}},
	}
	ps := mkProfiles(rows)
	exact := LMI(ps, model.CleanClean, DefaultConfig())
	if a, _ := exact.ClusterOf(0, "a"); a == GlueClusterID {
		t.Fatal("precondition: exhaustive LMI should cluster the pair")
	}
	cfg := DefaultConfig()
	cfg.LSH = &LSHConfig{Rows: 10, Bands: 10, Seed: 3} // threshold ~0.79
	approx := LMI(ps, model.CleanClean, cfg)
	if a, _ := approx.ClusterOf(0, "a"); a != GlueClusterID {
		t.Errorf("LSH threshold ~0.79 should prune the 0.18-similar pair, got cluster %d", a)
	}
}

func TestMinSimFloor(t *testing.T) {
	rows := []struct {
		src    int
		name   string
		tokens []string
	}{
		{0, "a", []string{"1", "2", "3", "4"}},
		{1, "b", []string{"1", "2", "x", "y"}}, // J = 2/6 = 0.33
	}
	ps := mkProfiles(rows)
	cfg := DefaultConfig()
	cfg.MinSim = 0.5
	part := LMI(ps, model.CleanClean, cfg)
	if a, _ := part.ClusterOf(0, "a"); a != GlueClusterID {
		t.Errorf("MinSim floor should prune the pair, got cluster %d", a)
	}
}

func TestACDirtyKind(t *testing.T) {
	rows := []struct {
		src    int
		name   string
		tokens []string
	}{
		{0, "name", []string{"alice", "bob", "carol"}},
		{0, "alias", []string{"alice", "bob", "dave"}},
		{0, "price", []string{"10", "20"}},
	}
	ps := mkProfiles(rows)
	part := AC(ps, model.Dirty, DefaultConfig())
	a, _ := part.ClusterOf(0, "name")
	b, _ := part.ClusterOf(0, "alias")
	if a != b || a == GlueClusterID {
		t.Errorf("dirty AC should cluster name/alias: %d vs %d", a, b)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(2, 3)
	uf.union(1, 2)
	if uf.find(0) != uf.find(3) {
		t.Error("union chain broken")
	}
	if uf.find(4) == uf.find(0) || uf.find(4) == uf.find(5) {
		t.Error("separate elements merged")
	}
}

func TestDefaultConfigAlphaClamp(t *testing.T) {
	ps := []Profile{
		{Ref: Ref{0, "a"}, Tokens: hashes("x", "y")},
		{Ref: Ref{1, "b"}, Tokens: hashes("x", "y")},
	}
	cfg := Config{Alpha: -3, Glue: true} // invalid alpha -> default 0.9
	part := LMI(ps, model.CleanClean, cfg)
	a, _ := part.ClusterOf(0, "a")
	b, _ := part.ClusterOf(1, "b")
	if a != b || a == GlueClusterID {
		t.Error("clamped alpha should still cluster identical attributes")
	}
}

func TestPartitioningString(t *testing.T) {
	ds := datasets.PaperExample()
	ps := ExtractProfiles(ds, text.NewTokenizer())
	part := LMI(ps, ds.Kind, DefaultConfig())
	if part.String() == "" {
		t.Error("String should render")
	}
}

// ---- differential oracle ------------------------------------------------
//
// The reference induction: enumerate every comparable attribute pair,
// score it by a merge of the two sorted token lists (Jaccard /
// weightedView.cosine), then run Algorithm 1 over the pair list with
// map candidate sets. The row kernel must reproduce its Partitioning
// exactly.

type refPair struct {
	i, j int
	sim  float64
}

func refScoredPairs(profiles []Profile, kind model.Kind, cfg Config) []refPair {
	cross := func(i, j int) bool {
		return kind != model.CleanClean || profiles[i].Ref.Source != profiles[j].Ref.Source
	}
	var pairs []refPair
	if cfg.LSH != nil {
		signer := lsh.NewSigner(cfg.LSH.Rows*cfg.LSH.Bands, cfg.LSH.Seed)
		ix := lsh.NewIndex(cfg.LSH.Rows, cfg.LSH.Bands)
		for i := range profiles {
			ix.Add(int32(i), signer.SignHashes(profiles[i].Tokens))
		}
		for _, c := range ix.Candidates(func(a, b int32) bool { return cross(int(a), int(b)) }) {
			pairs = append(pairs, refPair{i: int(c.A), j: int(c.B)})
		}
	} else {
		for i := range profiles {
			for j := i + 1; j < len(profiles); j++ {
				if cross(i, j) {
					pairs = append(pairs, refPair{i: i, j: j})
				}
			}
		}
	}
	var view *weightedView
	if cfg.Representation == TFIDF {
		view = buildTFIDF(profiles)
	}
	out := pairs[:0]
	for _, p := range pairs {
		if view != nil {
			p.sim = view.cosine(&profiles[p.i], &profiles[p.j], p.i, p.j)
		} else {
			p.sim = Jaccard(profiles[p.i].Tokens, profiles[p.j].Tokens)
		}
		if p.sim <= 0 || p.sim < cfg.MinSim {
			continue
		}
		out = append(out, p)
	}
	return out
}

func refLMI(profiles []Profile, kind model.Kind, cfg Config) *Partitioning {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.9
	}
	pairs := refScoredPairs(profiles, kind, cfg)
	maxSim := make([]float64, len(profiles))
	for _, p := range pairs {
		maxSim[p.i] = math.Max(maxSim[p.i], p.sim)
		maxSim[p.j] = math.Max(maxSim[p.j], p.sim)
	}
	cand := make([]map[int]bool, len(profiles))
	for i := range cand {
		cand[i] = make(map[int]bool)
	}
	for _, p := range pairs {
		if p.sim >= cfg.Alpha*maxSim[p.i] {
			cand[p.i][p.j] = true
		}
		if p.sim >= cfg.Alpha*maxSim[p.j] {
			cand[p.j][p.i] = true
		}
	}
	uf := newUnionFind(len(profiles))
	for _, p := range pairs {
		if cand[p.i][p.j] && cand[p.j][p.i] {
			uf.union(p.i, p.j)
		}
	}
	return buildPartitioning(profiles, uf, cfg.Glue)
}

func refAC(profiles []Profile, kind model.Kind, cfg Config) *Partitioning {
	pairs := refScoredPairs(profiles, kind, cfg)
	best := make([]int, len(profiles))
	bestSim := make([]float64, len(profiles))
	for i := range best {
		best[i] = -1
	}
	// Pairs arrive in ascending (i, j), so every attribute meets its
	// partners in ascending index order and > keeps the smallest tie.
	for _, p := range pairs {
		if p.sim > bestSim[p.i] {
			bestSim[p.i], best[p.i] = p.sim, p.j
		}
		if p.sim > bestSim[p.j] {
			bestSim[p.j], best[p.j] = p.sim, p.i
		}
	}
	uf := newUnionFind(len(profiles))
	for i, j := range best {
		if j >= 0 {
			uf.union(i, j)
		}
	}
	return buildPartitioning(profiles, uf, cfg.Glue)
}

// tokenProfile builds a profile over small integer tokens (sorted,
// deduplicated) with per-token frequencies 1 + tok%3.
func tokenProfile(src int, name string, toks ...uint64) Profile {
	slices.Sort(toks)
	toks = slices.Compact(toks)
	p := Profile{Ref: Ref{Source: src, Name: name}, Tokens: toks, Freqs: make([]int, len(toks))}
	for k, t := range toks {
		p.Freqs[k] = 1 + int(t%3)
		p.Count += p.Freqs[k]
	}
	p.Entropy = stats.Entropy(p.Freqs)
	return p
}

// randomProfiles draws n attributes over a vocabulary small enough that
// most pairs overlap and exact similarity ties are common; sources are
// interleaved, one token is shared by every non-empty attribute, and a
// few attributes are empty or exact copies of an earlier one.
func randomProfiles(rng *stats.RNG, n, vocab int) []Profile {
	ps := make([]Profile, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("a%03d", i)
		switch {
		case i > 0 && rng.Intn(8) == 0:
			twin := ps[rng.Intn(i)]
			ps = append(ps, tokenProfile(rng.Intn(2), name, slices.Clone(twin.Tokens)...))
		case rng.Intn(12) == 0:
			ps = append(ps, tokenProfile(rng.Intn(2), name))
		default:
			toks := []uint64{0}
			for k := 1 + rng.Intn(8); k > 0; k-- {
				toks = append(toks, uint64(1+rng.Intn(vocab)))
			}
			ps = append(ps, tokenProfile(rng.Intn(2), name, toks...))
		}
	}
	return ps
}

// checkInductionMatrix compares LMI and AC against the oracle over the
// whole configuration matrix for one profile set.
func checkInductionMatrix(t *testing.T, label string, ps []Profile, workers []int) {
	t.Helper()
	for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
		for _, rep := range []Representation{Binary, TFIDF} {
			for _, alpha := range []float64{0.5, 0.9, 1.0} {
				for _, minSim := range []float64{0, 0.3} {
					for _, glue := range []bool{true, false} {
						cfg := Config{Alpha: alpha, Glue: glue, MinSim: minSim, Representation: rep}
						wantLMI, wantAC := refLMI(ps, kind, cfg), refAC(ps, kind, cfg)
						for _, w := range workers {
							cfg.Workers = w
							if got := LMI(ps, kind, cfg); !reflect.DeepEqual(got, wantLMI) {
								t.Fatalf("%s: LMI kind=%v %+v differs from the oracle:\n got %+v\nwant %+v", label, kind, cfg, got.Clusters, wantLMI.Clusters)
							}
							if got := AC(ps, kind, cfg); !reflect.DeepEqual(got, wantAC) {
								t.Fatalf("%s: AC kind=%v %+v differs from the oracle:\n got %+v\nwant %+v", label, kind, cfg, got.Clusters, wantAC.Clusters)
							}
						}
					}
				}
			}
		}
	}
}

// TestInductionRowsMatchOracle: the token-posting row kernel returns the
// oracle's Partitioning across {LMI, AC} x {Binary, TFIDF} x {Dirty,
// CleanClean} x Alpha x MinSim x Glue x Workers on random profile sets
// (wide enough for several row chunks) and on the shapes the kernel
// treats specially.
func TestInductionRowsMatchOracle(t *testing.T) {
	workers := []int{0, 1, 2, 4}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		n := 20 + rng.Intn(60)
		if seed%3 == 0 {
			n = 3*rowChunk + rng.Intn(rowChunk) // every worker count claims chunks
		}
		checkInductionMatrix(t, fmt.Sprintf("seed %d", seed), randomProfiles(rng, n, 6+rng.Intn(30)), workers)
	}

	shapes := map[string][]Profile{
		// a's row: sim(a,b) = 1 and sim(a,c) = 0.5 — a tie exactly at
		// Alpha*maxSim for Alpha = 0.5 and at the maximum for b/b2.
		"alpha tie": {
			tokenProfile(0, "a", 1, 2),
			tokenProfile(1, "b", 1, 2),
			tokenProfile(1, "b2", 1, 2),
			tokenProfile(1, "c", 1, 2, 3, 4),
			tokenProfile(0, "d", 3, 4),
		},
		// AC must link a to the smaller of its two equally good matches
		// even though the kernel meets them in posting order.
		"ac tie-break": {
			tokenProfile(1, "z9", 5, 6, 7),
			tokenProfile(0, "a", 5, 6, 7, 8),
			tokenProfile(1, "z1", 5, 6, 7),
			tokenProfile(1, "lone", 8),
		},
		"identical": {
			tokenProfile(0, "p", 1, 2, 3), tokenProfile(1, "q", 1, 2, 3),
			tokenProfile(0, "r", 1, 2, 3), tokenProfile(1, "s", 1, 2, 3),
		},
		"empty attributes": {
			tokenProfile(0, "e0"), tokenProfile(1, "e1"),
			tokenProfile(0, "x", 1, 2), tokenProfile(1, "y", 2, 3),
		},
		"one empty source": {
			tokenProfile(0, "x", 1, 2), tokenProfile(0, "y", 1, 2), tokenProfile(0, "z", 2, 3),
		},
		"shared by all": {
			tokenProfile(0, "m", 0), tokenProfile(1, "n", 0, 1),
			tokenProfile(0, "o", 0, 1, 2), tokenProfile(1, "p", 0, 2), tokenProfile(1, "q", 0),
		},
		"no profiles": nil,
	}
	for label, ps := range shapes {
		checkInductionMatrix(t, label, ps, workers)
	}

	// Real extracted profiles, heterogeneous clean-clean schema.
	ds := datasets.MOV(0.01, 7)
	profiles := ExtractProfiles(ds, text.NewTokenizer())
	for _, cfg := range []Config{DefaultConfig(), {Alpha: 0.9, Glue: true, Representation: TFIDF, Workers: 3}} {
		if got, want := LMI(profiles, ds.Kind, cfg), refLMI(profiles, ds.Kind, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("MOV %+v: LMI differs from the oracle", cfg)
		}
		if got, want := AC(profiles, ds.Kind, cfg), refAC(profiles, ds.Kind, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("MOV %+v: AC differs from the oracle", cfg)
		}
	}
}

// TestInductionLSHMatchesOracle: the LSH path regroups its scored pairs
// into rows and must keep returning the pair-list result.
func TestInductionLSHMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed)
		ps := randomProfiles(rng, 60, 12)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			for _, rep := range []Representation{Binary, TFIDF} {
				cfg := Config{Alpha: 0.9, Glue: seed%2 == 0, Representation: rep, LSH: &LSHConfig{Rows: 2, Bands: 8, Seed: seed}}
				if got, want := LMI(ps, kind, cfg), refLMI(ps, kind, cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d kind=%v rep=%v: LSH LMI differs from the oracle", seed, kind, rep)
				}
				if got, want := AC(ps, kind, cfg), refAC(ps, kind, cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d kind=%v rep=%v: LSH AC differs from the oracle", seed, kind, rep)
				}
			}
		}
	}
}

// FuzzInductionRows drives the same comparison from fuzz input: 0xFF
// separates attributes, an attribute's first byte picks its source and
// the rest are its tokens; knobs selects the configuration.
func FuzzInductionRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xFF, 1, 1, 2, 0xFF, 1, 1, 2, 3, 4, 0xFF, 0, 3, 4}, uint16(0))
	f.Add([]byte{1, 5, 6, 7, 0xFF, 0, 5, 6, 7, 8, 0xFF, 1, 5, 6, 7, 0xFF, 0xFF, 0}, uint16(0x1FF))
	f.Add([]byte{0, 9, 0xFF, 0, 9, 0xFF, 0, 9, 10}, uint16(0x2A))
	f.Fuzz(func(t *testing.T, data []byte, knobs uint16) {
		if len(data) > 512 {
			return
		}
		var ps []Profile
		for i, rec := range bytes.Split(data, []byte{0xFF}) {
			src := 0
			toks := []uint64{}
			for k, b := range rec {
				if k == 0 {
					src = int(b & 1)
					continue
				}
				toks = append(toks, uint64(b%32))
			}
			ps = append(ps, tokenProfile(src, fmt.Sprintf("f%03d", i), toks...))
		}
		cfg := Config{
			Alpha:   []float64{0.5, 0.9, 1.0, 0.75}[knobs&3],
			Glue:    knobs&4 != 0,
			MinSim:  []float64{0, 0.3}[knobs>>3&1],
			Workers: int(knobs >> 4 & 3),
		}
		if knobs&64 != 0 {
			cfg.Representation = TFIDF
		}
		kind := model.Dirty
		if knobs&128 != 0 {
			kind = model.CleanClean
		}
		if got, want := LMI(ps, kind, cfg), refLMI(ps, kind, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("LMI kind=%v %+v differs from the oracle:\n got %+v\nwant %+v", kind, cfg, got.Clusters, want.Clusters)
		}
		if got, want := AC(ps, kind, cfg), refAC(ps, kind, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("AC kind=%v %+v differs from the oracle:\n got %+v\nwant %+v", kind, cfg, got.Clusters, want.Clusters)
		}
	})
}

// TestInductionCancellation: a cancelled context stops the row loop and
// the LSH scoring loop with ctx.Err() and no partial result, at every
// worker count, and leaves no goroutine behind.
func TestInductionCancellation(t *testing.T) {
	ps := randomProfiles(stats.NewRNG(11), 5*rowChunk, 20)
	before := runtime.NumGoroutine()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{0, 1, 2, 4} {
		for _, lshCfg := range []*LSHConfig{nil, {Rows: 2, Bands: 8, Seed: 1}} {
			cfg := Config{Alpha: 0.9, Glue: true, Workers: w, LSH: lshCfg}
			if p, err := LMICtx(cancelled, ps, model.Dirty, cfg); err != context.Canceled || p != nil {
				t.Errorf("LMICtx workers=%d lsh=%v: (%v, %v), want (nil, context.Canceled)", w, lshCfg != nil, p, err)
			}
			if p, err := ACCtx(cancelled, ps, model.CleanClean, cfg); err != context.Canceled || p != nil {
				t.Errorf("ACCtx workers=%d lsh=%v: (%v, %v), want (nil, context.Canceled)", w, lshCfg != nil, p, err)
			}
		}
	}

	// Mid-run: the context trips after a fixed number of polls, so the
	// chunk claim and the in-row posting budget both get to observe it.
	for _, w := range []int{1, 2, 4} {
		for after := int64(1); after <= 4; after++ {
			ctx := &tripCtx{Context: context.Background(), after: after}
			if p, err := LMICtx(ctx, ps, model.Dirty, Config{Alpha: 0.9, Workers: w}); err != context.Canceled || p != nil {
				t.Errorf("LMICtx workers=%d tripping after %d polls: (%v, %v), want (nil, context.Canceled)", w, after, p, err)
			}
		}
	}

	// Inside one row: every attribute holds the same 1100 tokens, so a
	// single row walks more posting entries than the in-row budget. The
	// second poll (after the first chunk claim) is the one inside row 0,
	// which must stop before any row is picked.
	wide := make([]Profile, 1100)
	toks := make([]uint64, len(wide))
	for k := range toks {
		toks[k] = uint64(k)
	}
	for i := range wide {
		wide[i] = tokenProfile(0, fmt.Sprintf("w%04d", i), slices.Clone(toks)...)
	}
	var picked atomic.Int64
	err := scoreRows(&tripCtx{Context: context.Background(), after: 2}, wide, model.Dirty, Config{Workers: 1}, nil,
		func(int, []int32, []float64) { picked.Add(1) })
	if err != context.Canceled || picked.Load() != 0 {
		t.Errorf("in-row cancellation: err = %v after %d picked rows, want context.Canceled after 0", err, picked.Load())
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked by cancelled inductions: %d > %d", n, before)
	}
}

// tripCtx reports context.Canceled from its after-th Err call onwards.
type tripCtx struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *tripCtx) Err() error {
	if c.polls.Add(1) >= c.after {
		return context.Canceled
	}
	return nil
}
