package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"blast/internal/datasets"
	"blast/internal/model"
)

// writeFixture materializes a small clean-clean benchmark to dir and
// returns the three file paths.
func writeFixture(t *testing.T, dir string) (e1, e2, truth string) {
	t.Helper()
	return writeDataset(t, dir, datasets.PRD(0.05, 3))
}

// writeDataset writes a clean-clean dataset's two collections and its
// truth to dir as the CSV files the CLI reads, and returns their paths.
func writeDataset(t *testing.T, dir string, ds *model.Dataset) (e1, e2, truth string) {
	t.Helper()
	e1 = filepath.Join(dir, "e1.csv")
	e2 = filepath.Join(dir, "e2.csv")
	truth = filepath.Join(dir, "truth.csv")
	mk := func(path string, fn func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
	}
	mk(e1, func(f *os.File) error { return datasets.WriteCollection(f, ds.E1) })
	mk(e2, func(f *os.File) error { return datasets.WriteCollection(f, ds.E2) })
	mk(truth, func(f *os.File) error { return datasets.WriteTruth(f, ds) })
	return
}

func runCLI(t *testing.T, e1, e2, truth, out, induction, pruning, transform string) error {
	t.Helper()
	return run(e1, e2, truth, out, induction, pruning, transform,
		0.9, 2, 2, 0.5, 0.8, 0, 0, 1, false)
}

func TestCLICleanClean(t *testing.T) {
	dir := t.TempDir()
	e1, e2, truth := writeFixture(t, dir)
	out := filepath.Join(dir, "pairs.csv")
	if err := runCLI(t, e1, e2, truth, out, "lmi", "blast", "token"); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("no pairs written: %d rows", len(rows))
	}
	if rows[0][0] != "id1" || rows[0][1] != "id2" {
		t.Errorf("bad header: %v", rows[0])
	}
}

func TestCLIDirtySingleCollection(t *testing.T) {
	dir := t.TempDir()
	ds := datasets.Census(0.05, 3)
	e1 := filepath.Join(dir, "dirty.csv")
	f, err := os.Create(e1)
	if err != nil {
		t.Fatal(err)
	}
	if err := datasets.WriteCollection(f, ds.E1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := filepath.Join(dir, "pairs.csv")
	if err := runCLI(t, e1, "", "", out, "lmi", "blast", "token"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal("no output written")
	}
}

func TestCLIVariants(t *testing.T) {
	dir := t.TempDir()
	e1, e2, truth := writeFixture(t, dir)
	for _, tc := range [][3]string{
		{"ac", "wnp1", "token"},
		{"none", "cnp2", "token"},
		{"lmi", "wep", "qgram3"},
		{"lmi", "cep", "suffix3"},
	} {
		out := filepath.Join(dir, "out-"+tc[0]+tc[1]+tc[2]+".csv")
		if err := runCLI(t, e1, e2, truth, out, tc[0], tc[1], tc[2]); err != nil {
			t.Errorf("%v: %v", tc, err)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	e1, e2, truth := writeFixture(t, dir)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"missing e1", func() error { return runCLI(t, "", e2, truth, "", "lmi", "blast", "token") }},
		{"bad induction", func() error { return runCLI(t, e1, e2, truth, "", "xx", "blast", "token") }},
		{"bad pruning", func() error { return runCLI(t, e1, e2, truth, "", "lmi", "xx", "token") }},
		{"bad transform", func() error { return runCLI(t, e1, e2, truth, "", "lmi", "blast", "xx") }},
		{"missing file", func() error { return runCLI(t, dir+"/nope.csv", e2, truth, "", "lmi", "blast", "token") }},
		{"lsh rows without bands", func() error {
			return run(e1, e2, truth, filepath.Join(dir, "lsh.csv"), "lmi", "blast", "token", 0.9, 2, 2, 0.5, 0.8, 4, 0, 1, false)
		}},
		{"negative lsh bands", func() error {
			return run(e1, e2, truth, filepath.Join(dir, "lsh.csv"), "lmi", "blast", "token", 0.9, 2, 2, 0.5, 0.8, 4, -1, 1, false)
		}},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestCLILSHAndClusters(t *testing.T) {
	dir := t.TempDir()
	e1, e2, truth := writeFixture(t, dir)
	out := filepath.Join(dir, "pairs.csv")
	if err := run(e1, e2, truth, out, "lmi", "blast", "token",
		0.9, 2, 2, 0.5, 0.8, 5, 30, 1, true); err != nil {
		t.Fatalf("run with LSH + dump: %v", err)
	}
}

// TestCLISeedReachesLSH: -seed seeds the MinHash functions of LSH
// induction, so two seeds whose band partitions differ retain different
// pairs.
func TestCLISeedReachesLSH(t *testing.T) {
	dir := t.TempDir()
	e1, e2, truth := writeDataset(t, dir, datasets.DBP(0.1, 42))
	pairs := func(seed uint64) []byte {
		out := filepath.Join(dir, "pairs.csv")
		if err := run(e1, e2, truth, out, "lmi", "blast", "token",
			0.9, 2, 2, 0.5, 0.8, 8, 2, seed, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if bytes.Equal(pairs(0), pairs(2)) {
		t.Error("-seed 0 and -seed 2 retained the same pairs: the seed does not reach LSH")
	}
}
