package blocking_test

import (
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/metrics"
	"blast/internal/model"
	"blast/internal/text"
)

func TestCanopyPaperExample(t *testing.T) {
	ds := datasets.PaperExample()
	c, err := blocking.Canopy(ds, text.NewTokenizer(), 0.15, 0.5, 7)
	if err != nil {
		t.Fatalf("Canopy: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The loose threshold 0.15 groups the overlapping profiles; both true
	// matches must co-occur in at least one canopy.
	q := metrics.EvaluateBlocks(c, ds.Truth)
	if q.PC < 1 {
		t.Errorf("canopy PC = %v, want 1 on the example", q.PC)
	}
}

func TestCanopyThresholdValidation(t *testing.T) {
	ds := datasets.PaperExample()
	for _, bad := range [][2]float64{{0, 0.5}, {0.5, 0}, {0.8, 0.5}, {0.5, 1.5}} {
		if _, err := blocking.Canopy(ds, nil, bad[0], bad[1], 1); err == nil {
			t.Errorf("thresholds %v should be rejected", bad)
		}
	}
}

func TestCanopyTightRemovesFromPool(t *testing.T) {
	// Three near-identical profiles and one outlier: with tight=loose
	// every member is removed with its first canopy, so each profile
	// appears in exactly one canopy.
	e := model.NewCollection("s")
	for _, v := range []string{"aa bb cc dd", "aa bb cc dd", "aa bb cc dd", "zz yy xx"} {
		p := model.Profile{ID: v[:2]}
		p.Add("x", v)
		e.Append(p)
	}
	ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	c, err := blocking.Canopy(ds, nil, 0.9, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := c.ProfileBlockCounts()
	for p, n := range counts[:3] {
		if n > 1 {
			t.Errorf("profile %d in %d canopies, want <= 1 with tight removal", p, n)
		}
	}
	if c.Len() != 1 {
		t.Errorf("blocks = %d, want 1 (identical trio)", c.Len())
	}
}

func TestCanopyLooseOverlaps(t *testing.T) {
	// loose << tight: profiles stay in the pool and may join several
	// canopies — the overlapping-canopy property of the method.
	e := model.NewCollection("s")
	for _, v := range []string{"aa bb cc dd ee", "aa bb cc dd ff", "aa bb gg hh ii"} {
		p := model.Profile{ID: v[:2]}
		p.Add("x", v)
		e.Append(p)
	}
	ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	c, err := blocking.Canopy(ds, nil, 0.2, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := c.ProfileBlockCounts()
	multi := 0
	for _, n := range counts {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("expected at least one profile in overlapping canopies")
	}
}

func TestCanopyCleanCleanSides(t *testing.T) {
	ds := datasets.AR1(0.03, 5)
	c, err := blocking.Canopy(ds, nil, 0.2, 0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.Len() == 0 {
		t.Fatal("no canopies formed")
	}
	q := metrics.EvaluateBlocks(c, ds.Truth)
	if q.PC < 0.7 {
		t.Errorf("canopy PC on ar1 = %v, want reasonable recall", q.PC)
	}
}

func TestCanopyDeterministicForSeed(t *testing.T) {
	ds := datasets.PRD(0.05, 5)
	a, _ := blocking.Canopy(ds, nil, 0.2, 0.6, 9)
	b, _ := blocking.Canopy(ds, nil, 0.2, 0.6, 9)
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic canopy count: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if ba, bb := a.Block(i), b.Block(i); ba.Key != bb.Key || ba.Size() != bb.Size() {
			t.Fatal("nondeterministic canopy content")
		}
	}
}

func TestQGramBlocking(t *testing.T) {
	ds := datasets.PaperExample()
	c := blocking.QGramBlocking(ds, 3)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Q-grams are more redundant than tokens: at least as many blocks.
	tk := blocking.TokenBlocking(ds)
	if c.Len() < tk.Len() {
		t.Errorf("qgram blocks %d < token blocks %d", c.Len(), tk.Len())
	}
	q := metrics.EvaluateBlocks(c, ds.Truth)
	if q.PC < 1 {
		t.Errorf("qgram PC = %v, want 1 (typo robustness adds recall)", q.PC)
	}
}

func TestSuffixBlockingRecallUnderTypos(t *testing.T) {
	// Tokens differing in their first letters still share suffixes.
	e := model.NewCollection("s")
	p := model.Profile{ID: "a"}
	p.Add("name", "moeller")
	e.Append(p)
	q := model.Profile{ID: "b"}
	q.Add("name", "mueller")
	e.Append(q)
	ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}

	tk := blocking.TokenBlocking(ds)
	if tk.Len() != 0 {
		t.Fatalf("token blocking should not pair them, got %d blocks", tk.Len())
	}
	sf := blocking.SuffixBlocking(ds, 3)
	if sf.Len() == 0 {
		t.Fatal("suffix blocking should pair them via shared suffixes (eller, ller, ...)")
	}
	found := false
	for i := 0; i < sf.Len(); i++ {
		if sf.Key(i) == "eller" {
			found = true
		}
	}
	if !found {
		t.Error("shared suffix block 'eller' missing")
	}
}
