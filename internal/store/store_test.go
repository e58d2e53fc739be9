package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"blast/internal/wal"
)

func testPayloads(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, rng.Intn(4096))
		rng.Read(p)
		out[i] = p
	}
	return out
}

func TestArenaRoundTrip(t *testing.T) {
	payloads := testPayloads(t, 1, 32)
	a, err := CreateFile(filepath.Join(t.TempDir(), "seg"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("file", func(t *testing.T) {
		for i, p := range payloads {
			id, err := a.Append(p)
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if id != i {
				t.Fatalf("append %d returned id %d", i, id)
			}
		}
		var buf []byte
		// Random-access loads, repeated to exercise dst reuse.
		for _, i := range []int{31, 0, 7, 7, 16, 31} {
			got, err := a.Load(i, buf)
			if err != nil {
				t.Fatalf("load %d: %v", i, err)
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("load %d: payload mismatch (%d vs %d bytes)", i, len(got), len(payloads[i]))
			}
			buf = got
		}
		if _, err := a.Load(len(payloads), nil); err == nil {
			t.Fatal("out-of-range load succeeded")
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Load(0, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("load after close: %v, want ErrClosed", err)
		}
	})
}

// TestFileArenaFaultInjection mirrors the internal/wal torn-tail tests:
// every byte-level fault on a segment file must surface as the right
// named error on the first load that touches it — never as plausible
// bytes.
func TestFileArenaFaultInjection(t *testing.T) {
	payloads := testPayloads(t, 2, 8)
	build := func(t *testing.T) *FileArena {
		t.Helper()
		a, err := CreateFile(filepath.Join(t.TempDir(), "seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if _, err := a.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}

	t.Run("clean", func(t *testing.T) {
		a := build(t)
		defer a.Close()
		for i := range payloads {
			if _, err := a.Load(i, nil); err != nil {
				t.Fatalf("clean load %d: %v", i, err)
			}
		}
	})

	t.Run("truncated-tail", func(t *testing.T) {
		// Chop the file mid-way through the final frame's payload: the
		// torn-tail shape of a crashed writer.
		a := build(t)
		defer a.Close()
		if err := a.f.Truncate(a.end - 1); err != nil {
			t.Fatal(err)
		}
		last := len(payloads) - 1
		if _, err := a.Load(last, nil); !errors.Is(err, ErrTruncatedSegment) {
			t.Fatalf("torn-tail load: %v, want ErrTruncatedSegment", err)
		}
		// Earlier frames are intact and must still load.
		if _, err := a.Load(0, nil); err != nil {
			t.Fatalf("intact frame after truncation: %v", err)
		}
	})

	t.Run("corrupt-payload", func(t *testing.T) {
		a := build(t)
		defer a.Close()
		// Flip one payload byte of frame 3 in place.
		off := a.offs[3] + FrameHeaderSize + int64(len(payloads[3])/2)
		flipByteAt(t, a.f, off)
		if _, err := a.Load(3, nil); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("corrupt payload load: %v, want ErrCorruptSegment", err)
		}
		if _, err := a.Load(2, nil); err != nil {
			t.Fatalf("neighboring frame: %v", err)
		}
	})

	t.Run("corrupt-header", func(t *testing.T) {
		a := build(t)
		defer a.Close()
		flipByteAt(t, a.f, a.offs[5]) // length field of frame 5
		_, err := a.Load(5, nil)
		if !errors.Is(err, ErrCorruptSegment) && !errors.Is(err, ErrTruncatedSegment) {
			t.Fatalf("corrupt header load: %v, want a named segment error", err)
		}
	})
}

func flipByteAt(t *testing.T, f *os.File, off int64) {
	t.Helper()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestScanFramesFaults walks a segment image frame by frame with
// wal.DecodeFrame, the decoder FileArena.Load runs, through the same fault
// classes, pinning which named error each shape produces.
func TestScanFramesFaults(t *testing.T) {
	img := []byte(Magic)
	payloads := testPayloads(t, 3, 4)
	for _, p := range payloads {
		img = wal.AppendFrame(img, p)
	}
	got, err := scanFrames(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("scanned %d frames, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short-magic", func(b []byte) []byte { return b[:4] }, ErrTruncatedSegment},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrCorruptSegment},
		{"torn-header", func(b []byte) []byte { return b[:len(Magic)+3] }, ErrTruncatedSegment},
		{"torn-payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncatedSegment},
		{"flipped-crc", func(b []byte) []byte { b[len(Magic)+5] ^= 0x01; return b }, ErrCorruptSegment},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), img...))
			if _, err := scanFrames(mut); !errors.Is(err, tc.want) {
				t.Fatalf("scanFrames = %v, want %v", err, tc.want)
			}
		})
	}
}

// scanFrames walks a whole segment image as CreateFile lays it out — the
// magic header, then frames back to back — decoding each frame with
// wal.DecodeFrame and stopping at the first error.
func scanFrames(img []byte) ([][]byte, error) {
	if len(img) < len(Magic) {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the magic header", ErrTruncatedSegment, len(img))
	}
	if string(img[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSegment, img[:len(Magic)])
	}
	var payloads [][]byte
	for rest := img[len(Magic):]; len(rest) > 0; {
		payload, next, err := wal.DecodeFrame(rest)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, payload)
		rest = next
	}
	return payloads, nil
}

func TestCacheLRUAndStats(t *testing.T) {
	c := NewCache(100)
	loads := 0
	get := func(key uint64, size int64) any {
		t.Helper()
		v, err := c.Get(key, func() (any, int64, error) {
			loads++
			return key, size, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	get(1, 40)
	get(2, 40)
	if got := get(1, 40); got != uint64(1) {
		t.Fatalf("hit returned %v", got)
	}
	if loads != 2 {
		t.Fatalf("loads = %d, want 2", loads)
	}
	// Inserting key 3 (40 bytes) exceeds 100: key 2 (LRU) is evicted.
	get(3, 40)
	get(2, 40)
	if loads != 4 {
		t.Fatalf("loads = %d, want 4 (key 2 evicted and reloaded)", loads)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 1 hit / 4 misses", st)
	}
	if st.Bytes > 100+40 {
		t.Fatalf("resident %d bytes, cap 100", st.Bytes)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", st.HitRate())
	}

	// Load errors are returned, never cached.
	sentinel := errors.New("boom")
	if _, err := c.Get(9, func() (any, int64, error) { return nil, 0, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error load: %v", err)
	}
	if _, err := c.Get(9, func() (any, int64, error) { return nil, 0, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error must not be cached: %v", err)
	}
}

// TestCacheDrop: dropped keys are reloaded on the next Get and stop
// counting against the budget; other keys stay cached.
func TestCacheDrop(t *testing.T) {
	c := NewCache(1000)
	loads := map[uint64]int{}
	get := func(key uint64) {
		t.Helper()
		if _, err := c.Get(key, func() (any, int64, error) { loads[key]++; return key, 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for key := uint64(0); key < 6; key++ {
		get(key)
	}
	c.Drop(func(key uint64) bool { return key%2 == 1 })
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("after Drop: %+v, want 3 entries / 30 bytes", st)
	}
	for key := uint64(0); key < 6; key++ {
		get(key)
	}
	for key, n := range loads {
		if want := 1 + int(key%2); n != want {
			t.Errorf("key %d loaded %d times, want %d", key, n, want)
		}
	}
}

func TestCloseAndRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	a, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.CloseAndRemove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("segment file still present: %v", err)
	}
	// Removing twice stays clean.
	if err := a.CloseAndRemove(); err != nil {
		t.Fatalf("second CloseAndRemove: %v", err)
	}
}
