package store

import (
	"bytes"
	"errors"
	"testing"

	"blast/internal/wal"
)

// FuzzSegmentDecode feeds arbitrary byte images to wal.DecodeFrame — the
// one frame decoder, behind both the log's recovery scan and
// FileArena.Load — walked frame by frame after the magic header
// (scanFrames): it must never panic, must only ever fail with the named
// segment errors, and must round-trip payloads it re-encodes bit for
// bit. This is the decode half of the fail-closed contract the spilled
// CSR relies on — a mangled segment file yields an error, never
// plausible adjacency bytes.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("BLSEG00"))
	f.Add(wal.AppendFrame([]byte(Magic), []byte("hello")))
	f.Add(wal.AppendFrame(wal.AppendFrame([]byte(Magic), nil), []byte{1, 2, 3}))
	img := wal.AppendFrame([]byte(Magic), bytes.Repeat([]byte{0xab}, 300))
	f.Add(img[:len(img)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, err := scanFrames(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) && !errors.Is(err, ErrTruncatedSegment) {
				t.Fatalf("DecodeFrame failed with an unnamed error: %v", err)
			}
			return
		}
		// A clean image must re-encode to the identical bytes.
		re := []byte(Magic)
		for _, p := range payloads {
			re = wal.AppendFrame(re, p)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding %d frames produced %d bytes, input was %d", len(payloads), len(re), len(data))
		}
	})
}
