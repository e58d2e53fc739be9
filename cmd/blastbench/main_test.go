package main

import (
	"strings"
	"testing"

	"blast/internal/experiments"
)

func tinyCfg() experiments.Config { return experiments.Config{Scale: 0.15, Seed: 42} }

func TestRunFastExperiments(t *testing.T) {
	// The cheap experiments exercise the whole dispatch path.
	for _, exp := range []string{"fig5", "table2"} {
		if err := run(tinyCfg(), exp, ""); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunSingleDatasetSelectors(t *testing.T) {
	if err := run(tinyCfg(), "table4", "ar1"); err != nil {
		t.Errorf("table4 ar1: %v", err)
	}
	if err := run(tinyCfg(), "table7", "census"); err != nil {
		t.Errorf("table7 census: %v", err)
	}
	if err := run(tinyCfg(), "endtoend", "prd"); err != nil {
		t.Errorf("endtoend prd: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(tinyCfg(), "table99", ""); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := run(tinyCfg(), "table4", "nope"); err == nil {
		t.Error("unknown dataset should error")
	}
}

// TestUsageMatchesExperimentTable pins the generated flag help against
// the dispatch table: every experiment id appears exactly once in the
// -exp usage string (plus the synthetic "all"), and the table itself is
// well-formed (unique ids, no reserved "all" entry, a run function per
// row). The usage text can no longer lag the switch by a release,
// because there is no switch — the table is the only dispatch.
func TestUsageMatchesExperimentTable(t *testing.T) {
	seen := make(map[string]bool, len(experimentTable))
	var ids []string
	for _, s := range experimentTable {
		if s.id == "all" {
			t.Fatalf("table entry uses the reserved id %q", s.id)
		}
		if seen[s.id] {
			t.Fatalf("duplicate table entry %q", s.id)
		}
		seen[s.id] = true
		if s.run == nil {
			t.Fatalf("table entry %q has no run function", s.id)
		}
		ids = append(ids, s.id)
	}
	wantExp := "experiment id: " + strings.Join(append(ids, "all"), ", ")
	if got := expUsage(); got != wantExp {
		t.Errorf("expUsage() = %q, want %q", got, wantExp)
	}
	// The satellite experiment the historical drift dropped from the
	// usage string stays pinned by name.
	if !seen["standard"] {
		t.Error(`experiment "standard" missing from the dispatch table`)
	}
}
