package datasets

import (
	"bytes"
	"testing"

	"blast/internal/model"
)

func TestStreamPurityAndDeterminism(t *testing.T) {
	s1 := NewStream(500, 42)
	s2 := NewStream(500, 42)
	// Same (seed, i) → identical profile, regardless of access order.
	for _, i := range []int{499, 0, 250, 1, 11, 250} {
		a, b := s1.Profile(i), s2.Profile(i)
		if a.String() != b.String() {
			t.Fatalf("profile %d diverges between identical streams:\n%s\n%s", i, a, b)
		}
	}
	// A different seed changes the corpus.
	other, same := NewStream(500, 43).Profile(7), s1.Profile(7)
	if other.String() == same.String() {
		t.Error("seed does not influence the stream")
	}
	// IDs are unique and positional.
	if got := s1.Profile(123).ID; got != "s123" {
		t.Errorf("profile 123 has ID %q", got)
	}
}

func TestStreamDuplicates(t *testing.T) {
	s := NewStream(200, 7)
	dups := 0
	for i := 0; i < s.Len(); i++ {
		d, ok := s.Duplicate(i)
		if !ok {
			continue
		}
		dups++
		if d != i-1 {
			t.Fatalf("Duplicate(%d) = %d, want %d", i, d, i-1)
		}
		// The duplicate must share tokens with its original (same latent
		// entity) without being byte-identical (independent noise) —
		// byte-identical pairs would make the matching task trivial.
		a, b := s.Profile(d), s.Profile(i)
		at := value(a, "title")
		bt := value(b, "title")
		if at == "" || bt == "" {
			t.Fatalf("profiles %d/%d lack titles", d, i)
		}
		if a.String() == b.String() {
			t.Errorf("duplicate %d is byte-identical to %d", i, d)
		}
	}
	if want := s.Len() / streamDupEvery; dups != want {
		t.Errorf("%d duplicates in %d profiles, want %d", dups, s.Len(), want)
	}
	// Out-of-range and boundary indices never report duplicates.
	for _, i := range []int{0, -1, s.Len(), s.Len() + 1} {
		if _, ok := s.Duplicate(i); ok {
			t.Errorf("Duplicate(%d) reported a pair", i)
		}
	}
}

func TestStreamProfilesRange(t *testing.T) {
	s := NewStream(50, 3)
	batch := s.Profiles(10, 20)
	if len(batch) != 10 {
		t.Fatalf("Profiles(10,20) returned %d", len(batch))
	}
	for k, p := range batch {
		if want := s.Profile(10 + k); p.String() != want.String() {
			t.Errorf("batch[%d] != Profile(%d)", k, 10+k)
		}
	}
	if got := s.Profiles(45, 99); len(got) != 5 {
		t.Errorf("clamped range returned %d, want 5", len(got))
	}
	if got := s.Profiles(-5, 3); len(got) != 3 {
		t.Errorf("negative lo returned %d, want 3", len(got))
	}
	if got := s.Profiles(30, 10); got != nil {
		t.Errorf("inverted range returned %d profiles", len(got))
	}
}

// TestStreamCSVMatchesDataset checks the streaming CSV writers emit
// exactly what the materialized dataset would: the files round-trip
// through the ordinary loaders to the same collection and truth.
func TestStreamCSVMatchesDataset(t *testing.T) {
	s := NewStream(120, 11)
	ds := streamDataset(s)

	var e1 bytes.Buffer
	if err := s.WriteE1(&e1); err != nil {
		t.Fatal(err)
	}
	var mat bytes.Buffer
	if err := WriteCollection(&mat, ds.E1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Bytes(), mat.Bytes()) {
		t.Error("streamed E1 CSV differs from the materialized encoding")
	}

	var tr bytes.Buffer
	if err := s.WriteTruth(&tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTruth(bytes.NewReader(tr.Bytes()), ds)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != ds.Truth.Size() {
		t.Errorf("streamed truth has %d pairs, want %d", got.Size(), ds.Truth.Size())
	}

	back, err := ReadCollection(bytes.NewReader(e1.Bytes()), "stream")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.E1.Len() {
		t.Errorf("round trip: %d profiles, want %d", back.Len(), ds.E1.Len())
	}
}

// streamDataset materializes the whole stream as a dirty dataset with
// its duplicate pairs as ground truth.
func streamDataset(s *Stream) *model.Dataset {
	e, g := model.NewCollection("stream"), model.NewGroundTruth()
	for i := 0; i < s.Len(); i++ {
		e.Append(s.Profile(i))
		if d, ok := s.Duplicate(i); ok {
			g.Add(d, i)
		}
	}
	return &model.Dataset{Name: "stream", Kind: model.Dirty, E1: e, Truth: g}
}

// value returns the first value of attribute name in p, or "".
func value(p model.Profile, name string) string {
	for _, pr := range p.Pairs {
		if pr.Name == name {
			return pr.Value
		}
	}
	return ""
}
