package shard

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// sampleSnapshot is the frozen form of a 4-profile graph of 3 edges of
// which pruning kept 0-1 (w 1.5) and 1-3 (w 2.75).
func sampleSnapshot(theta bool) *Snapshot {
	s := &Snapshot{
		Epoch:         7,
		Batches:       3,
		NumProfiles:   4,
		NumEdges:      3,
		RetainedPairs: 2,
		Offsets:       []int64{0, 1, 3, 3, 4},
		Neighbors:     []int32{1, 0, 3, 1},
		Weights:       []float64{1.5, 1.5, 2.75, 2.75},
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
		"neighbor out of range": func(s *Snapshot) { s.Neighbors[3] = 99 },
		"offset bounds":         func(s *Snapshot) { s.Offsets[4] = 3 },
		"offsets not monotone":  func(s *Snapshot) { s.Offsets[2] = 0 },
		"entry arrays disagree": func(s *Snapshot) { s.Weights = s.Weights[:3] },
		"retained count":        func(s *Snapshot) { s.RetainedPairs = 3 },
		"more pairs than edges": func(s *Snapshot) { s.NumEdges = 1 },
		"theta length":          func(s *Snapshot) { s.Theta = s.Theta[:2] },
		"row not ascending":     func(s *Snapshot) { s.Neighbors[1], s.Neighbors[2] = 3, 0 },
		"duplicate neighbor":    func(s *Snapshot) { s.Neighbors[2] = 0 },
		"self entry":            func(s *Snapshot) { s.Neighbors[0] = 0 },
		"zero weight":           func(s *Snapshot) { s.Weights[0] = 0 },
		"negative weight":       func(s *Snapshot) { s.Weights[1] = -1.5 },
		"NaN weight":            func(s *Snapshot) { s.Weights[2] = math.NaN() },
		"infinite weight":       func(s *Snapshot) { s.Weights[3] = math.Inf(1) },
		// One shard's export: a file holds every row of a state.
		"owned rows only": func(s *Snapshot) { *s = *ownedExport(s, 0, 2) },
	}
	for name, mutate := range cases {
		s := sampleSnapshot(true)
		mutate(s)
		// Encode accepts anything; the decoder must reject the structure
		// even though the checksum is valid.
		if _, err := DecodeSnapshot(EncodeSnapshot(s)); !errors.Is(err, errSnapCorrupt) {
			t.Errorf("%s: %v, want the corrupt-snapshot error", name, err)
		}
	}
}

// snapBlob frames a hand-written payload the way EncodeSnapshot does:
// magic, body, CRC-32C of both.
func snapBlob(magic string, body ...byte) []byte {
	buf := append([]byte(magic), body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, snapCRC))
}

// oldLayoutBlobs are well-formed files of the three layouts this build
// no longer reads, written out by hand: a 2-profile graph with its one
// edge retained. The first two hold every entry of the graph plus a
// retention bitset, the third one shard's owned rows.
func oldLayoutBlobs() (v1, v2, v3 []byte) {
	entries := []byte{
		3, 0, 1, 1, // 3 offsets, delta-encoded: 0 1 2
		2, 1, 0, 0, 0, 0, 0, 0, 0, // 2 neighbors: 1, 0
		2, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // 2 weights: 1.5, 1.5
		2, 0b11, // 2 retention bits, both set
		0, // no theta
	}
	header := []byte{1, 0, 2, 1, 1} // epoch 1, 0 batches, 2 profiles, 1 edge, 1 retained pair
	v1 = snapBlob("BLSNAP01", append(slices.Clone(header), entries...)...)
	// The partitioned layout carried PartShards, PartShard after the
	// counters: shard 0 of 1 owns both rows.
	v2 = snapBlob("BLSNAP02", append(append(slices.Clone(header), 1, 0), entries...)...)
	// So did the owned-rows layout: shard 0 of 1, the retained rows.
	v3 = snapBlob("BLSNAP03", append(append(slices.Clone(header), 1, 0),
		3, 0, 1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0)...)
	return v1, v2, v3
}

// TestSnapshotOldLayoutsRefusedByName: a checksum-valid file of an
// earlier layout is a version error — the one recovery's ladder falls
// back on — not corruption, a panic or a partial snapshot.
func TestSnapshotOldLayoutsRefusedByName(t *testing.T) {
	v1, v2, v3 := oldLayoutBlobs()
	for _, blob := range [][]byte{v1, v2, v3} {
		s, err := DecodeSnapshot(blob)
		if !errors.Is(err, ErrSnapshotVersion) || s != nil {
			t.Errorf("%s: (%v, %v), want no snapshot and ErrSnapshotVersion", blob[:8], s, err)
		}
	}
	if _, err := DecodeSnapshot(snapBlob("BLSNAP99", 0)); err == nil || errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("unknown magic: %v, want a bad-magic error", err)
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

// TestWriteFileAtomic: WriteSnapshotFile replaces the file at its path
// through wal.WriteFileAtomic — a newer snapshot over an older one reads
// back whole, no temporary file is left behind, and a failing rename
// (here: a directory in the target's place) leaves the old target
// untouched and the temporary file removed.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epoch-0000000000000007.snap")
	for _, theta := range []bool{true, false} {
		want := sampleSnapshot(theta)
		if err := WriteSnapshotFile(path, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshotFile(path)
		if err != nil || !equalSnapshots(want, got) {
			t.Fatalf("theta=%v: read back %+v, %v", theta, got, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("theta=%v: %d directory entries after write (%v), want 1", theta, len(entries), err)
		}
	}

	blocked := filepath.Join(dir, "blocked")
	kept := filepath.Join(blocked, "kept")
	if err := os.MkdirAll(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(kept, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(blocked, sampleSnapshot(true)); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(kept); err != nil || string(got) != "old" {
		t.Fatalf("old target disturbed: %q, %v", got, err)
	}
	if _, err := os.Stat(blocked + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// FuzzSnapshotDecode: arbitrary bytes must decode to a valid snapshot
// or fail, never panic; whatever decodes must re-encode canonically.
// The seeds cover the layout's shapes — with and without thresholds,
// empty — and the three retired layouts, which must keep failing by
// name however the fuzzer mutates around them.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(EncodeSnapshot(sampleSnapshot(true)))
	f.Add(EncodeSnapshot(sampleSnapshot(false)))
	f.Add(EncodeSnapshot(&Snapshot{NumProfiles: 0, Offsets: []int64{0}}))
	f.Add([]byte("BLSNAP04garbage"))
	v1, v2, v3 := oldLayoutBlobs()
	f.Add(v1)
	f.Add(v2)
	f.Add(v3)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			if s != nil {
				t.Fatalf("a snapshot came back beside the error %v", err)
			}
			return
		}
		if len(data) >= 8 && string(data[:8]) != string(snapMagic[:]) {
			t.Fatalf("a %q file decoded", data[:8])
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

// TestOwnedRowsCountedWhereMade: a shard's OwnedRows and ResidentBytes
// are counted where its share is made — from the full start state, and
// from each export — and the two counts agree: an export holds exactly
// its share. Summed over the shards they are the state's own numbers,
// for every geometry.
func TestOwnedRowsCountedWhereMade(t *testing.T) {
	full := sampleSnapshot(true)
	stateBytes := 12*int64(len(full.Neighbors)) + 16*int64(full.NumProfiles)
	for nparts := 1; nparts <= 4; nparts++ {
		rows, bytes := 0, int64(0)
		for part := 0; part < nparts; part++ {
			hashed := 0
			for u := 0; u < full.NumProfiles; u++ {
				if Owner(int32(u), nparts) == part {
					hashed++
				}
			}
			r, b := full.Share(part, nparts)
			if r != hashed {
				t.Fatalf("shard %d/%d: share of %d rows, hashed count %d", part, nparts, r, hashed)
			}
			if er, eb := ownedExport(full, part, nparts).Share(part, nparts); er != r || eb != b {
				t.Fatalf("shard %d/%d: export's share (%d, %d), the state's (%d, %d)", part, nparts, er, eb, r, b)
			}
			rows, bytes = rows+r, bytes+b
		}
		if rows != full.NumProfiles || bytes != stateBytes {
			t.Fatalf("%d shards share (%d rows, %d bytes), want the state's (%d, %d)", nparts, rows, bytes, full.NumProfiles, stateBytes)
		}
	}
}
