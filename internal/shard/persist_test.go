package shard

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func sampleSnapshot(theta bool) *Snapshot {
	s := &Snapshot{
		Epoch:         7,
		Batches:       3,
		NumProfiles:   4,
		NumEdges:      3,
		RetainedPairs: 2,
		Offsets:       []int64{0, 2, 4, 5, 6},
		Neighbors:     []int32{1, 2, 0, 3, 0, 1},
		Weights:       []float64{1.5, 0.25, 1.5, 2.75, 0.25, 2.75},
		Retained:      []bool{true, false, true, true, false, true},
	}
	if theta {
		s.Theta = []float64{0.75, 1.375, 0.125, 1.375}
	}
	return s
}

func equalSnapshots(a, b *Snapshot) bool {
	return a.Epoch == b.Epoch && a.Batches == b.Batches &&
		a.NumProfiles == b.NumProfiles && a.NumEdges == b.NumEdges &&
		a.RetainedPairs == b.RetainedPairs &&
		slices.Equal(a.Offsets, b.Offsets) &&
		slices.Equal(a.Neighbors, b.Neighbors) &&
		slices.Equal(a.Weights, b.Weights) &&
		slices.Equal(a.Retained, b.Retained) &&
		slices.Equal(a.Theta, b.Theta) &&
		(a.Theta == nil) == (b.Theta == nil)
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, theta := range []bool{true, false} {
		want := sampleSnapshot(theta)
		got, err := DecodeSnapshot(EncodeSnapshot(want))
		if err != nil {
			t.Fatalf("theta=%v: %v", theta, err)
		}
		if !equalSnapshots(want, got) {
			t.Fatalf("theta=%v: round trip mismatch:\n%+v\n%+v", theta, want, got)
		}
	}
	// Empty snapshot (a served empty dataset).
	empty := &Snapshot{NumProfiles: 0, Offsets: []int64{0}}
	got, err := DecodeSnapshot(EncodeSnapshot(empty))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProfiles != 0 || len(got.Neighbors) != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
}

// TestSnapshotCodecFlipEveryByte: any single corrupted byte must be
// rejected (the trailing CRC-32C covers the whole blob).
func TestSnapshotCodecFlipEveryByte(t *testing.T) {
	blob := EncodeSnapshot(sampleSnapshot(true))
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x10
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeSnapshot(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestSnapshotValidationFailsClosed(t *testing.T) {
	cases := map[string]func(*Snapshot){
		"neighbor out of range": func(s *Snapshot) { s.Neighbors[0] = 99 },
		"offset bounds":         func(s *Snapshot) { s.Offsets[4] = 5 },
		"edge count":            func(s *Snapshot) { s.NumEdges = 2 },
		"retained count":        func(s *Snapshot) { s.RetainedPairs = 3 },
		"theta length":          func(s *Snapshot) { s.Theta = s.Theta[:2] },
	}
	for name, mutate := range cases {
		s := sampleSnapshot(true)
		mutate(s)
		// Encode accepts anything; the decoder must reject the structure
		// even though the checksum is valid.
		if _, err := DecodeSnapshot(EncodeSnapshot(s)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epoch-0000000000000007.snap")
	want := sampleSnapshot(true)
	if err := WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSnapshots(want, got) {
		t.Fatal("file round trip mismatch")
	}
	// No temporary residue.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d directory entries after write", len(entries))
	}
	// A corrupted file is an error, not a partial snapshot.
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); err == nil {
		t.Fatal("corrupted snapshot file accepted")
	}
	if _, err := ReadSnapshotFile(filepath.Join(dir, "absent.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent file: %v", err)
	}
}

// FuzzSnapshotDecode: arbitrary bytes must decode to a valid snapshot
// or fail, never panic; whatever decodes must re-encode canonically.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(EncodeSnapshot(sampleSnapshot(true)))
	f.Add(EncodeSnapshot(sampleSnapshot(false)))
	f.Add(EncodeSnapshot(&Snapshot{NumProfiles: 0, Offsets: []int64{0}}))
	f.Add([]byte("BLSNAP01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if err := validateSnapshot(s); err != nil {
			t.Fatalf("decoded snapshot fails validation: %v", err)
		}
		again, err := DecodeSnapshot(EncodeSnapshot(s))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !equalSnapshots(s, again) {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}

// TestOwnedRowsCountedWhereMade: OwnedRows is served from a count taken
// where a partitioned snapshot is made — here SliceOwned and the
// decoder (the field is derived, not encoded) — and equals the hashed
// count it used to recompute on every call, for every geometry; a full
// replica owns every row.
func TestOwnedRowsCountedWhereMade(t *testing.T) {
	full := sampleSnapshot(true)
	if got := full.OwnedRows(); got != full.NumProfiles {
		t.Fatalf("full replica owns %d rows, want all %d", got, full.NumProfiles)
	}
	for nparts := 1; nparts <= 4; nparts++ {
		total := 0
		for part := 0; part < nparts; part++ {
			hashed := 0
			for u := 0; u < full.NumProfiles; u++ {
				if Owner(int32(u), nparts) == part {
					hashed++
				}
			}
			sliced := SliceOwned(full, part, nparts)
			if got := sliced.OwnedRows(); got != hashed {
				t.Fatalf("shard %d/%d: sliced snapshot owns %d rows, hashed count %d", part, nparts, got, hashed)
			}
			decoded, err := DecodeSnapshot(EncodeSnapshot(sliced))
			if err != nil {
				t.Fatalf("shard %d/%d: %v", part, nparts, err)
			}
			if got := decoded.OwnedRows(); got != hashed {
				t.Fatalf("shard %d/%d: decoded snapshot owns %d rows, hashed count %d", part, nparts, got, hashed)
			}
			total += hashed
		}
		if total != full.NumProfiles {
			t.Fatalf("%d shards own %d rows between them, want %d", nparts, total, full.NumProfiles)
		}
	}
}
