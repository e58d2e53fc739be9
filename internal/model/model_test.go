package model

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestProfileAddValue(t *testing.T) {
	var p Profile
	p.ID = "p1"
	p.Add("name", "John Abram Jr")
	p.Add("profession", "car seller")
	p.Add("name", "J. Abram")

	want := []Pair{{"name", "John Abram Jr"}, {"profession", "car seller"}, {"name", "J. Abram"}}
	if !slices.Equal(p.Pairs, want) {
		t.Errorf("Pairs = %v; want %v in insertion order", p.Pairs, want)
	}
}

func TestProfileString(t *testing.T) {
	var p Profile
	p.ID = "x"
	p.Add("a", "1")
	p.Add("b", "2")
	if got, want := p.String(), "x{a=1, b=2}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCollectionAttributeIndex(t *testing.T) {
	c := NewCollection("src")
	p1 := Profile{ID: "1"}
	p1.Add("zeta", "v")
	p1.Add("alpha", "v")
	c.Append(p1)
	p2 := Profile{ID: "2"}
	p2.Add("mid", "v")
	p2.Add("alpha", "w")
	c.Append(p2)

	if got := c.NumAttributes(); got != 3 {
		t.Fatalf("NumAttributes = %d, want 3", got)
	}
}

func TestCollectionAppendInvalidatesIndex(t *testing.T) {
	c := NewCollection("src")
	p := Profile{ID: "1"}
	p.Add("a", "v")
	c.Append(p)
	if c.NumAttributes() != 1 {
		t.Fatal("precondition failed")
	}
	q := Profile{ID: "2"}
	q.Add("b", "v")
	c.Append(q)
	if got := c.NumAttributes(); got != 2 {
		t.Errorf("NumAttributes after append = %d, want 2", got)
	}
}

func TestCollectionNVP(t *testing.T) {
	c := NewCollection("src")
	p := Profile{ID: "1"}
	p.Add("a", "v")
	p.Add("b", "v")
	c.Append(p)
	c.Append(Profile{ID: "2"})
	if got := c.NVP(); got != 2 {
		t.Errorf("NVP = %d, want 2", got)
	}
}

func TestMakePairCanonical(t *testing.T) {
	p := MakePair(7, 3)
	if p.U != 3 || p.V != 7 {
		t.Errorf("MakePair(7,3) = %+v, want {3 7}", p)
	}
	if q := MakePair(3, 7); q != p {
		t.Errorf("MakePair not symmetric: %+v vs %+v", p, q)
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(u, v int32) bool {
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		p := MakePair(int(u), int(v))
		return PairFromKey(p.Key()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairKeyOrderPreserving(t *testing.T) {
	a := MakePair(1, 2)
	b := MakePair(1, 3)
	c := MakePair(2, 3)
	if !(a.Key() < b.Key() && b.Key() < c.Key()) {
		t.Errorf("keys not ordered: %d %d %d", a.Key(), b.Key(), c.Key())
	}
}

func TestGroundTruth(t *testing.T) {
	g := NewGroundTruth()
	g.Add(1, 5)
	g.Add(5, 1) // duplicate in reverse order
	g.Add(2, 2) // self pair ignored
	g.Add(0, 9)

	if got := g.Size(); got != 2 {
		t.Fatalf("Size = %d, want 2", got)
	}
	if !g.Contains(5, 1) || !g.Contains(1, 5) {
		t.Error("Contains should be order-insensitive")
	}
	if g.Contains(1, 2) {
		t.Error("Contains(1,2) = true, want false")
	}
	ps := g.Pairs()
	if len(ps) != 2 || ps[0] != MakePair(0, 9) || ps[1] != MakePair(1, 5) {
		t.Errorf("Pairs = %v, want sorted [{0 9} {1 5}]", ps)
	}
}

func newCleanDataset(t *testing.T) *Dataset {
	t.Helper()
	e1 := NewCollection("a")
	e2 := NewCollection("b")
	for i := 0; i < 3; i++ {
		p := Profile{ID: string(rune('a' + i))}
		p.Add("x", "v")
		e1.Append(p)
	}
	for i := 0; i < 2; i++ {
		p := Profile{ID: string(rune('p' + i))}
		p.Add("y", "v")
		e2.Append(p)
	}
	g := NewGroundTruth()
	g.Add(0, 3)
	return &Dataset{Name: "t", Kind: CleanClean, E1: e1, E2: e2, Truth: g}
}

func TestDatasetCleanClean(t *testing.T) {
	d := newCleanDataset(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := d.NumProfiles(); got != 5 {
		t.Errorf("NumProfiles = %d, want 5", got)
	}
	if got := d.Split(); got != 3 {
		t.Errorf("Split = %d, want 3", got)
	}
	if d.SourceOf(2) != 0 || d.SourceOf(3) != 1 {
		t.Error("SourceOf boundary wrong")
	}
	if d.Profile(3).ID != "p" {
		t.Errorf("Profile(3).ID = %q, want p", d.Profile(3).ID)
	}
	if d.Comparable(0, 1) {
		t.Error("same-source pair reported comparable in clean-clean ER")
	}
	if !d.Comparable(0, 4) {
		t.Error("cross-source pair reported not comparable")
	}
	if d.Comparable(2, 2) {
		t.Error("self pair comparable")
	}
	if got := d.TotalComparisons(); got != 6 {
		t.Errorf("TotalComparisons = %d, want 6", got)
	}
	if got := len(d.Sources()); got != 2 {
		t.Errorf("Sources len = %d, want 2", got)
	}
}

func TestDatasetDirty(t *testing.T) {
	e := NewCollection("s")
	for i := 0; i < 4; i++ {
		p := Profile{ID: string(rune('a' + i))}
		p.Add("x", "v")
		e.Append(p)
	}
	g := NewGroundTruth()
	g.Add(0, 2)
	d := &Dataset{Name: "dirty", Kind: Dirty, E1: e, Truth: g}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !d.Comparable(0, 1) || !d.Comparable(1, 3) {
		t.Error("dirty pairs should all be comparable")
	}
	if got := d.TotalComparisons(); got != 6 {
		t.Errorf("TotalComparisons = %d, want 6", got)
	}
	if got := len(d.Sources()); got != 1 {
		t.Errorf("Sources len = %d, want 1", got)
	}
}

func TestDatasetValidateErrors(t *testing.T) {
	// Truth pair within the same source of a clean-clean dataset.
	d := newCleanDataset(t)
	d.Truth.Add(0, 1)
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted same-source truth pair")
	}
	// Out-of-range pair.
	d2 := newCleanDataset(t)
	d2.Truth.Add(0, 99)
	if err := d2.Validate(); err == nil {
		t.Error("Validate accepted out-of-range truth pair")
	}
	// Missing E2.
	d3 := newCleanDataset(t)
	d3.E2 = nil
	if err := d3.Validate(); err == nil {
		t.Error("Validate accepted clean-clean dataset without E2")
	}
	// Dirty with E2.
	d4 := newCleanDataset(t)
	d4.Kind = Dirty
	if err := d4.Validate(); err == nil {
		t.Error("Validate accepted dirty dataset with E2")
	}
	// Nil E1.
	d5 := &Dataset{Name: "x", Kind: Dirty}
	if err := d5.Validate(); err == nil {
		t.Error("Validate accepted nil E1")
	}
}

func TestKindString(t *testing.T) {
	if CleanClean.String() != "clean-clean" || Dirty.String() != "dirty" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}
