package blocking_test

import (
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/metrics"
	"blast/internal/model"
)

func TestSortedNeighborhoodWindow(t *testing.T) {
	// Profiles keyed a,b,c,d,e: window 3 -> 3 blocks, adjacent profiles
	// co-occur, distance >= 3 never does.
	e := model.NewCollection("s")
	for _, v := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		p := model.Profile{ID: v}
		p.Add("k", v)
		e.Append(p)
	}
	ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	c, err := blocking.SortedNeighborhood(ds, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.Len() != 3 {
		t.Fatalf("blocks = %d, want 3 (5 - 3 + 1)", c.Len())
	}
	pairs := c.DistinctPairs()
	if _, ok := pairs[model.MakePair(0, 1).Key()]; !ok {
		t.Error("adjacent pair missing")
	}
	if _, ok := pairs[model.MakePair(0, 4).Key()]; ok {
		t.Error("distance-4 pair should not co-occur with window 3")
	}
}

func TestSortedNeighborhoodFindsNearDuplicates(t *testing.T) {
	ds := datasets.Census(0.2, 9)
	c, err := blocking.SortedNeighborhood(ds, nil, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := metrics.EvaluateBlocks(c, ds.Truth)
	// SN with the smallest-token key catches a decent share of the
	// duplicates (classic behaviour: good but not complete recall).
	if q.PC < 0.3 {
		t.Errorf("SN PC = %v, want >= 0.3", q.PC)
	}
	if q.Comparisons >= ds.TotalComparisons() {
		t.Error("SN should compare far fewer than brute force")
	}
}

func TestSortedNeighborhoodCleanClean(t *testing.T) {
	ds := datasets.AR1(0.05, 3)
	c, err := blocking.SortedNeighborhood(ds, nil, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Clean-clean windows containing a single side entail no comparison
	// and must have been dropped.
	for i := 0; i < c.Len(); i++ {
		if c.Comparisons(i) == 0 {
			t.Fatal("zero-comparison window survived")
		}
	}
}

func TestSortedNeighborhoodByKeyCustom(t *testing.T) {
	ds := datasets.PaperExample()
	c, err := blocking.SortedNeighborhoodByKey(ds, 2, func(p *model.Profile) string {
		for _, pr := range p.Pairs {
			if pr.Name == "year" {
				return pr.Value
			}
		}
		return p.ID
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no windows")
	}
}

func TestSortedNeighborhoodValidation(t *testing.T) {
	ds := datasets.PaperExample()
	if _, err := blocking.SortedNeighborhood(ds, nil, 1, 1); err == nil {
		t.Error("window < 2 should error")
	}
}

func TestSortedNeighborhoodSkipsEmptyKeys(t *testing.T) {
	e := model.NewCollection("s")
	e.Append(model.Profile{ID: "empty"})
	for _, v := range []string{"aa", "ab"} {
		p := model.Profile{ID: v}
		p.Add("k", v)
		e.Append(p)
	}
	ds := &model.Dataset{Name: "d", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
	c, err := blocking.SortedNeighborhood(ds, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		for _, id := range c.Block(i).P1 {
			if id == 0 {
				t.Error("keyless profile entered a window")
			}
		}
	}
}
