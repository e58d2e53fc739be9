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
		if err := run(tinyCfg(), exp, "", false); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunSingleDatasetSelectors(t *testing.T) {
	if err := run(tinyCfg(), "table4", "ar1", false); err != nil {
		t.Errorf("table4 ar1: %v", err)
	}
	if err := run(tinyCfg(), "table7", "census", false); err != nil {
		t.Errorf("table7 census: %v", err)
	}
	if err := run(tinyCfg(), "endtoend", "prd", false); err != nil {
		t.Errorf("endtoend prd: %v", err)
	}
}

func TestRunQueryExperiment(t *testing.T) {
	if err := run(tinyCfg(), "query", "ar1", false); err != nil {
		t.Errorf("query text: %v", err)
	}
	if err := run(tinyCfg(), "query", "census", true); err != nil {
		t.Errorf("query json: %v", err)
	}
}

func TestRunServeExperiment(t *testing.T) {
	if err := run(tinyCfg(), "serve", "ar1", false); err != nil {
		t.Errorf("serve text: %v", err)
	}
	if err := run(tinyCfg(), "serve", "census", true); err != nil {
		t.Errorf("serve json: %v", err)
	}
}

func TestRunRecoverExperiment(t *testing.T) {
	if err := run(tinyCfg(), "recover", "ar1", false); err != nil {
		t.Errorf("recover text: %v", err)
	}
	if err := run(tinyCfg(), "recover", "census", true); err != nil {
		t.Errorf("recover json: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(tinyCfg(), "table99", "", false); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := run(tinyCfg(), "table4", "nope", false); err == nil {
		t.Error("unknown dataset should error")
	}
}

// TestUsageMatchesExperimentTable pins the generated flag help against
// the dispatch table: every experiment id appears exactly once in the
// -exp usage string (plus the synthetic "all"), the JSON-capable subset
// drives the -json usage string, and the table itself is well-formed
// (unique ids, no reserved "all" entry, a run function per row). The
// usage text can no longer lag the switch by a release, because there
// is no switch — the table is the only dispatch.
func TestUsageMatchesExperimentTable(t *testing.T) {
	seen := make(map[string]bool, len(experimentTable))
	var ids, jsonIDs []string
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
		if s.json {
			jsonIDs = append(jsonIDs, s.id)
		}
	}
	wantExp := "experiment id: " + strings.Join(append(ids, "all"), ", ")
	if got := expUsage(); got != wantExp {
		t.Errorf("expUsage() = %q, want %q", got, wantExp)
	}
	wantJSON := "render the " + strings.Join(jsonIDs, "/") + " experiments as JSON"
	if got := jsonUsage(); got != wantJSON {
		t.Errorf("jsonUsage() = %q, want %q", got, wantJSON)
	}
	// The satellite experiments the historical drift dropped from the
	// usage string stay pinned by name.
	for _, id := range []string{"standard", "spill"} {
		if !seen[id] {
			t.Errorf("experiment %q missing from the dispatch table", id)
		}
	}
}

func TestRunSpillExperiment(t *testing.T) {
	if err := run(tinyCfg(), "spill", "", false); err != nil {
		t.Errorf("spill text: %v", err)
	}
	if err := run(tinyCfg(), "spill", "", true); err != nil {
		t.Errorf("spill json: %v", err)
	}
}
