package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blast/internal/datasets"
	"blast/internal/model"
)

func TestRunWritesCleanCleanFiles(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(config{name: "prd", scale: 0.03, seed: 7, dir: dir}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range []string{"prd-E1.csv", "prd-E2.csv", "prd-truth.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
		if !strings.Contains(out.String(), f) {
			t.Errorf("no 'wrote' line for %s in output: %s", f, out.String())
		}
	}
	// Files must round-trip through the loaders.
	f1, err := os.Open(filepath.Join(dir, "prd-E1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	e1, err := datasets.ReadCollection(f1, "E1")
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	want := datasets.PRD(0.03, 7)
	if e1.Len() != want.E1.Len() {
		t.Errorf("round trip: %d profiles, want %d", e1.Len(), want.E1.Len())
	}
}

func TestRunWritesDirtyFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run(config{name: "census", scale: 0.05, seed: 7, dir: dir}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "census-E2.csv")); err == nil {
		t.Error("dirty dataset should not write E2")
	}
	f, err := os.Open(filepath.Join(dir, "census-truth.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds := datasets.Census(0.05, 7)
	truth, err := datasets.ReadTruth(f, ds)
	if err != nil {
		t.Fatalf("ReadTruth: %v", err)
	}
	if truth.Size() != ds.Truth.Size() {
		t.Errorf("truth round trip: %d, want %d", truth.Size(), ds.Truth.Size())
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := run(config{name: "nope", scale: 0.1, seed: 1, dir: t.TempDir()}, io.Discard); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestRunStreamingMode(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(config{name: "stream", seed: 5, dir: dir, profiles: 300}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "stream-E1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e1, err := datasets.ReadCollection(f, "stream")
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	if e1.Len() != 300 {
		t.Errorf("streamed corpus has %d profiles, want 300", e1.Len())
	}
	// The truth file must reference ids present in E1.
	tf, err := os.Open(filepath.Join(dir, "stream-truth.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	truth, err := datasets.ReadTruth(tf, &model.Dataset{Kind: model.Dirty, E1: e1})
	if err != nil {
		t.Fatalf("ReadTruth: %v", err)
	}
	if truth.Size() != 30 {
		t.Errorf("streamed truth has %d pairs, want 30", truth.Size())
	}
}

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"empty dataset", []string{"-dataset", ""}},
		{"zero scale", []string{"-scale", "0"}},
		{"negative scale", []string{"-scale", "-0.5"}},
		{"nan scale", []string{"-scale", "NaN"}},
		{"inf scale", []string{"-scale", "Inf"}},
		{"empty dir", []string{"-dir", ""}},
		{"negative profiles", []string{"-profiles", "-1"}},
		{"unknown flag", []string{"-bogus"}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if _, err := parseFlags(tc.args, &buf); err == nil {
			t.Errorf("%s: parseFlags(%v) accepted", tc.name, tc.args)
		} else if buf.Len() == 0 {
			t.Errorf("%s: no usage diagnostics emitted", tc.name)
		}
	}
	// Valid lines parse; streaming mode tolerates the unused scale.
	if _, err := parseFlags([]string{"-dataset", "census", "-scale", "0.2"}, io.Discard); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	if cfg, err := parseFlags([]string{"-profiles", "1000", "-scale", "0"}, io.Discard); err != nil {
		t.Errorf("streaming flags rejected: %v", err)
	} else if cfg.profiles != 1000 {
		t.Errorf("profiles = %d, want 1000", cfg.profiles)
	}
}

// failingWriter fails mid-write and again on close — the regression
// shape of the old write helper, which discarded the close error on
// exactly this path and printed "wrote" before closing.
type failingWriter struct {
	writeErr error
	closeErr error
}

func (f *failingWriter) Write(p []byte) (int, error) { return 0, f.writeErr }
func (f *failingWriter) Close() error                { return f.closeErr }

// syncFailWriter writes fine but cannot sync.
type syncFailWriter struct {
	syncErr error
	closed  bool
}

func (s *syncFailWriter) Write(p []byte) (int, error) { return len(p), nil }
func (s *syncFailWriter) Sync() error                 { return s.syncErr }
func (s *syncFailWriter) Close() error                { s.closed = true; return nil }

func TestWriteAllJoinsErrors(t *testing.T) {
	writeErr := errors.New("disk full")
	closeErr := errors.New("close failed")
	err := writeAll(&failingWriter{writeErr: writeErr, closeErr: closeErr}, func(w io.Writer) error {
		_, err := w.Write([]byte("row\n"))
		return err
	})
	if !errors.Is(err, writeErr) {
		t.Errorf("write error lost: %v", err)
	}
	if !errors.Is(err, closeErr) {
		t.Errorf("close error discarded on the mid-write failure path: %v", err)
	}

	// A clean write that cannot sync must fail — and still close.
	syncErr := errors.New("sync failed")
	sw := &syncFailWriter{syncErr: syncErr}
	err = writeAll(sw, func(w io.Writer) error { _, err := w.Write([]byte("x")); return err })
	if !errors.Is(err, syncErr) {
		t.Errorf("sync error lost: %v", err)
	}
	if !sw.closed {
		t.Error("writer not closed after sync failure")
	}
}

func TestWriteCSVAnnouncesOnlyAfterSuccess(t *testing.T) {
	// Success: exactly one "wrote" line, after the file exists.
	dir := t.TempDir()
	var out bytes.Buffer
	path := filepath.Join(dir, "ok.csv")
	if err := writeCSV(path, &out, func(w io.Writer) error {
		_, err := io.WriteString(w, "id,attribute,value\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("no wrote line: %q", out.String())
	}

	// Failure: no "wrote" line may appear.
	out.Reset()
	boom := errors.New("boom")
	err := writeCSV(filepath.Join(dir, "bad.csv"), &out, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("writer error lost: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("failure path printed output: %q", out.String())
	}
}
