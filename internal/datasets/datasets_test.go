package datasets

import (
	"bytes"
	"testing"

	"blast/internal/model"
)

func TestPaperExampleShape(t *testing.T) {
	ds := PaperExample()
	if err := ds.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ds.E1.Len() != 4 || ds.Truth.Size() != 2 {
		t.Errorf("|E|=%d |D|=%d, want 4/2", ds.E1.Len(), ds.Truth.Size())
	}
	if !ds.Truth.Contains(0, 2) || !ds.Truth.Contains(1, 3) {
		t.Error("truth should be p1~p3, p2~p4")
	}
}

func TestAllGeneratorsValidate(t *testing.T) {
	for _, name := range append(CleanCleanNames(), DirtyNames()...) {
		gen, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		ds := gen(0.02, 42)
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
		if ds.Truth.Size() == 0 {
			t.Errorf("%s: empty ground truth", name)
		}
		if ds.E1.Len() == 0 {
			t.Errorf("%s: empty E1", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
	if gen, err := ByName("paper-fig1"); err != nil || gen(1, 1).Name != "paper-fig1" {
		t.Error("paper-fig1 should resolve")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := AR1(0.02, 7)
	b := AR1(0.02, 7)
	if a.E1.Len() != b.E1.Len() || a.Truth.Size() != b.Truth.Size() {
		t.Fatal("same seed, different shapes")
	}
	for i := range a.E1.Profiles {
		if a.E1.Profiles[i].String() != b.E1.Profiles[i].String() {
			t.Fatalf("profile %d differs between runs", i)
		}
	}
	c := AR1(0.02, 8)
	same := true
	for i := range a.E1.Profiles {
		if i < len(c.E1.Profiles) && a.E1.Profiles[i].String() != c.E1.Profiles[i].String() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestScaleControlsSize(t *testing.T) {
	small := AR1(0.02, 1)
	big := AR1(0.1, 1)
	if small.E1.Len() >= big.E1.Len() {
		t.Errorf("scale not monotone: %d vs %d", small.E1.Len(), big.E1.Len())
	}
	// Table 2 proportions at scale 1 would be 2600/2300/2200.
	if got := small.E1.Len(); got != 52 {
		t.Errorf("ar1 E1 at 0.02 = %d, want 52", got)
	}
	if got := small.E2.Len(); got != 46 {
		t.Errorf("ar1 E2 at 0.02 = %d, want 46", got)
	}
	if got := small.Truth.Size(); got != 44 {
		t.Errorf("ar1 |D| at 0.02 = %d, want 44", got)
	}
}

func TestTable2Shapes(t *testing.T) {
	// Attribute counts must match the paper's shapes at any scale.
	ar1 := AR1(0.02, 3)
	s := Describe(ar1)
	if s.A1 != 4 || s.A2 != 4 {
		t.Errorf("ar1 |A| = %d-%d, want 4-4", s.A1, s.A2)
	}
	mov := MOV(0.005, 3)
	s = Describe(mov)
	if s.A1 != 4 || s.A2 != 7 {
		t.Errorf("mov |A| = %d-%d, want 4-7", s.A1, s.A2)
	}
	cen := Census(0.1, 3)
	s = Describe(cen)
	if s.A1 != 5 {
		t.Errorf("census |A| = %d, want 5", s.A1)
	}
	cora := Cora(0.1, 3)
	s = Describe(cora)
	if s.A1 != 12 {
		t.Errorf("cora |A| = %d, want 12", s.A1)
	}
	if s.String() == "" {
		t.Error("Stats.String should render")
	}
}

func TestDBPWideSchema(t *testing.T) {
	ds := DBP(0.01, 5)
	s := Describe(ds)
	// Wide, sparse schemas on both sides; E2 wider than E1.
	if s.A1 < 40 || s.A2 < 60 {
		t.Errorf("dbp |A| = %d-%d, want wide schemas", s.A1, s.A2)
	}
	if s.A2 <= s.A1 {
		t.Errorf("dbp A2 (%d) should exceed A1 (%d)", s.A2, s.A1)
	}
	if s.E2 <= s.E1 {
		t.Errorf("dbp E2 (%d) should exceed E1 (%d)", s.E2, s.E1)
	}
}

func TestCoraDenseTruth(t *testing.T) {
	ds := Cora(0.2, 9)
	// Dense clusters: matches far exceed profile count / 2.
	if ds.Truth.Size() < ds.E1.Len() {
		t.Errorf("cora truth %d should exceed |E| %d (large clusters)", ds.Truth.Size(), ds.E1.Len())
	}
}

func TestCDDBSparseTruth(t *testing.T) {
	ds := CDDB(0.05, 9)
	// Sparse: ~600 matches for ~10k profiles at scale 1.
	if ds.Truth.Size() > ds.E1.Len()/4 {
		t.Errorf("cddb truth %d too dense for |E| %d", ds.Truth.Size(), ds.E1.Len())
	}
}

func TestManualAlignment(t *testing.T) {
	for _, name := range []string{"ar1", "ar2", "prd"} {
		align, ok := ManualAlignment(name)
		if !ok || len(align) != 8 {
			t.Errorf("%s: alignment missing or wrong size %d", name, len(align))
		}
	}
	if _, ok := ManualAlignment("mov"); ok {
		t.Error("mov is partially mappable: no manual 1:1 alignment")
	}
}

func TestClusterPlan(t *testing.T) {
	sizes := clusterPlan(100, 10, 3)
	total := 0
	clusters := 0
	for _, s := range sizes {
		total += s
		if s > 1 {
			clusters++
		}
	}
	if total != 100 {
		t.Errorf("plan total = %d, want 100", total)
	}
	if clusters != 10 {
		t.Errorf("plan clusters = %d, want 10", clusters)
	}
	// copies clamp
	sizes = clusterPlan(10, 2, 1)
	for _, s := range sizes {
		if s != 1 && s != 2 {
			t.Errorf("unexpected cluster size %d", s)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := AR1(0.02, 11)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, ds.E1); err != nil {
		t.Fatalf("WriteCollection: %v", err)
	}
	back, err := ReadCollection(bytes.NewReader(buf.Bytes()), ds.E1.Name)
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	if back.Len() != ds.E1.Len() {
		t.Fatalf("round trip: %d profiles, want %d", back.Len(), ds.E1.Len())
	}
	for i := range back.Profiles {
		if back.Profiles[i].String() != ds.E1.Profiles[i].String() {
			t.Fatalf("profile %d differs after round trip", i)
		}
	}
}

func TestCSVEmptyProfile(t *testing.T) {
	c := model.NewCollection("s")
	c.Append(model.Profile{ID: "lonely"})
	p := model.Profile{ID: "full"}
	p.Add("a", "v")
	c.Append(p)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCollection(bytes.NewReader(buf.Bytes()), "s")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || len(back.Profiles[0].Pairs) != 0 {
		t.Errorf("empty profile lost in round trip: %d profiles", back.Len())
	}
}

func TestTruthRoundTrip(t *testing.T) {
	ds := PRD(0.05, 13)
	var buf bytes.Buffer
	if err := WriteTruth(&buf, ds); err != nil {
		t.Fatalf("WriteTruth: %v", err)
	}
	back, err := ReadTruth(bytes.NewReader(buf.Bytes()), ds)
	if err != nil {
		t.Fatalf("ReadTruth: %v", err)
	}
	if back.Size() != ds.Truth.Size() {
		t.Fatalf("truth round trip: %d, want %d", back.Size(), ds.Truth.Size())
	}
	for _, p := range ds.Truth.Pairs() {
		if !back.Contains(int(p.U), int(p.V)) {
			t.Fatalf("pair %v lost", p)
		}
	}
}

func TestReadTruthUnknownID(t *testing.T) {
	ds := PaperExample()
	if _, err := ReadTruth(bytes.NewReader([]byte("id1,id2\nghost,p1\n")), ds); err == nil {
		t.Error("unknown id should error")
	}
}

func TestReadCollectionEmpty(t *testing.T) {
	c, err := ReadCollection(bytes.NewReader(nil), "x")
	if err != nil || c.Len() != 0 {
		t.Errorf("empty reader: %v, %d profiles", err, c.Len())
	}
}

func TestSynthWordDisjointNamespaces(t *testing.T) {
	seen := make(map[string]uint64)
	for ns := uint64(1); ns <= 3; ns++ {
		for i := 0; i < 200; i++ {
			w := synthWord(ns, i)
			if prev, dup := seen[w]; dup && prev != ns {
				t.Fatalf("word %q appears in namespaces %d and %d", w, prev, ns)
			}
			seen[w] = ns
		}
	}
}

func TestVocabDraw(t *testing.T) {
	g := newGenerator(5)
	v := newVocab(g.rng, 99, 50, 1.0)
	if v.size() != 50 {
		t.Fatalf("size = %d", v.size())
	}
	counts := make(map[string]int)
	for i := 0; i < 5000; i++ {
		counts[v.draw()]++
	}
	// Zipf: the most common word should dominate the median one.
	if counts[v.at(0)] < counts[v.at(25)] {
		t.Error("vocab draw not Zipf-skewed")
	}
}

// TestGeneratorInvariantsAcrossSeedsAndScales: every generator, at
// several seeds and scales, produces a structurally valid dataset whose
// Token Blocking retains most matches (the redundancy-positive property
// all BLAST experiments assume).
func TestGeneratorInvariantsAcrossSeedsAndScales(t *testing.T) {
	scales := map[string]float64{
		"ar1": 0.03, "ar2": 0.005, "prd": 0.05, "mov": 0.005, "dbp": 0.01,
		"census": 0.1, "cora": 0.1, "cddb": 0.01,
	}
	for _, name := range append(CleanCleanNames(), DirtyNames()...) {
		for _, seed := range []uint64{1, 2} {
			gen, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ds := gen(scales[name], seed)
			if err := ds.Validate(); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
			s := Describe(ds)
			if s.Dups == 0 || s.NVP1 == 0 {
				t.Errorf("%s seed %d: degenerate stats %+v", name, seed, s)
			}
			// Every profile should carry at least one name-value pair on
			// average (sparse schemas allowed, empty datasets not).
			if s.NVP1 < s.E1/2 {
				t.Errorf("%s seed %d: nvp %d too sparse for %d profiles", name, seed, s.NVP1, s.E1)
			}
		}
	}
}

// TestNoiseMonotonicity: rendering with heavier noise must not increase
// the exact-token overlap between duplicate profiles, on average.
func TestNoiseMonotonicity(t *testing.T) {
	overlap := func(dropToken float64) float64 {
		g := newGenerator(11)
		g.addField(&field{name: "f", vocab: newVocab(g.rng, 5, 500, 1.0), minTokens: 8, maxTokens: 8})
		schema := []attrMap{{attr: "a", field: "f"}}
		total := 0.0
		for i := 0; i < 200; i++ {
			l := g.entity()
			p1 := g.render(l, schema, noise{dropToken: dropToken}, "x")
			p2 := g.render(l, schema, noise{dropToken: dropToken}, "y")
			v1 := value(p1, "a")
			v2 := value(p2, "a")
			set := make(map[string]bool)
			for _, tok := range splitTokens(v1) {
				set[tok] = true
			}
			inter := 0
			for _, tok := range splitTokens(v2) {
				if set[tok] {
					inter++
				}
			}
			total += float64(inter)
		}
		return total / 200
	}
	clean := overlap(0)
	noisy := overlap(0.4)
	if noisy >= clean {
		t.Errorf("noise did not reduce overlap: clean %v vs noisy %v", clean, noisy)
	}
}

func splitTokens(v string) []string {
	var out []string
	cur := ""
	for _, r := range v {
		if r == ' ' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// TestIsYear covers the numeric-format noise helper.
func TestIsYear(t *testing.T) {
	yes := []string{"1985", "2009", "1800"}
	no := []string{"85", "12345", "198a", "0985", "", "3000"}
	for _, v := range yes {
		if !isYear(v) {
			t.Errorf("isYear(%q) = false", v)
		}
	}
	for _, v := range no {
		if isYear(v) {
			t.Errorf("isYear(%q) = true", v)
		}
	}
}
