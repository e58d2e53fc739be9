package main

// BENCHMARK.json at the root of the checkout is the single list of
// metric names, units, directions and bounds; the harness reads it so
// the two cannot drift apart.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`

	byName map[string]specMetric
}

// findRoot locates the checkout root (the directory holding
// BENCHMARK.json) from the working directory: the root itself when run
// through run.sh, two levels up when run from the package directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", filepath.Join("..", "..")} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ../..")
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	sp := &spec{byName: map[string]specMetric{}}
	if err := json.Unmarshal(data, sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if _, dup := sp.byName[m.Name]; dup {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q listed twice", m.Name)
			}
			sp.byName[m.Name] = m
		}
	}
	return sp, nil
}

// unit returns the unit BENCHMARK.json gives a metric; recording a name
// it does not list is a harness bug.
func (sp *spec) unit(name string) string {
	m, ok := sp.byName[name]
	if !ok {
		panic("metric not in BENCHMARK.json: " + name)
	}
	return m.Unit
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// gated reports whether name is an end-to-end metric of BENCHMARK.json
// (the ones the driver bounds) and returns its entry either way.
func (sp *spec) gated(name string) (specMetric, bool) {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return sp.byName[name], false
}
