// Package store decouples the logical shapes of the system — flat
// per-entry arrays such as a CSR adjacency — from their residency. A
// FileArena is an append-only sequence of opaque payload frames
// ("segments") in a single file, read back by frame id with positioned
// reads (pread). Every frame is CRC-framed, and a read that does not
// check out — short file, mangled header, payload checksum mismatch —
// fails closed with a named error rather than returning bytes that
// merely look plausible. It is the spill target of the beyond-RAM CSR
// (graph.BuildCSRSpillCtx).
//
// The on-disk format is deliberately minimal and self-checking — the
// write-ahead log's frame (wal.AppendFrame, wal.DecodeFrame) behind a
// magic of its own:
//
//	[8]  magic "BLSEG001"
//	per frame:
//	  [4] little-endian payload length
//	  [4] little-endian CRC-32C (Castagnoli) of the payload
//	  [n] payload
//
// Frames are located by the in-memory offset table the writer built;
// segment files are ephemeral (one build's spill), never reopened by a
// later process, so no recovery scan exists.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"

	"blast/internal/wal"
)

// Magic is the 8-byte header every segment file starts with.
const Magic = "BLSEG001"

var (
	// ErrCorruptSegment reports a segment frame whose bytes fail
	// validation: an implausible header or a payload whose checksum does
	// not match. Readers must fail closed on it — the frame's bytes are
	// not usable in any part. It is the frame codec's wal.ErrCorruptFrame.
	ErrCorruptSegment = wal.ErrCorruptFrame
	// ErrTruncatedSegment reports a segment file that ends mid-header or
	// mid-payload — the torn-tail shape of an interrupted write. Distinct
	// from ErrCorruptSegment so fault-injection tests can pin which
	// failure mode a given fault produces. It is wal.ErrTruncatedFrame.
	ErrTruncatedSegment = wal.ErrTruncatedFrame
	// ErrClosed reports an operation on a closed arena.
	ErrClosed = errors.New("store: arena closed")
)

// FrameHeaderSize is the bytes a frame adds in front of its payload; a
// Load into a buffer with capacity for header plus payload allocates
// nothing.
const FrameHeaderSize = wal.FrameHeaderSize

// FileArena is an append-only arena of payload frames: frames append to
// a single segment file and load back by positioned read with full
// validation. Append and Load must not be interleaved from multiple
// goroutines without external synchronization; Load alone is safe for
// concurrent readers.
type FileArena struct {
	f    *os.File
	path string
	// offs[i] is the file offset of frame i's header; sizes[i] its
	// declared payload length. The table lives in memory for the arena's
	// lifetime (segment files are never reopened by a later process).
	offs  []int64
	sizes []int32
	end   int64
	buf   []byte // reusable append encoding buffer
}

// CreateFile creates (truncating) a segment file at path and writes the
// magic header.
func CreateFile(path string) (*FileArena, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		err = errors.Join(err, f.Close())
		return nil, err
	}
	return &FileArena{f: f, path: path, end: int64(len(Magic))}, nil
}

// Path returns the segment file's path.
func (a *FileArena) Path() string { return a.path }

// Append stores payload as the next frame and returns its id
// (sequential from 0).
func (a *FileArena) Append(payload []byte) (int, error) {
	if a.f == nil {
		return 0, ErrClosed
	}
	a.buf = wal.AppendFrame(a.buf[:0], payload)
	if _, err := a.f.WriteAt(a.buf, a.end); err != nil {
		return 0, err
	}
	a.offs = append(a.offs, a.end)
	a.sizes = append(a.sizes, int32(len(payload)))
	a.end += int64(len(a.buf))
	return len(a.offs) - 1, nil
}

// Load returns frame id's payload, reading through dst's backing array
// when it has FrameHeaderSize more capacity than the payload (the
// payload then aliases dst). The frame is re-validated on every load:
// the header must match the writer's table and the payload its
// checksum, so on-disk corruption surfaces as a named error at the
// first read that touches it.
func (a *FileArena) Load(id int, dst []byte) ([]byte, error) {
	if a.f == nil {
		return nil, ErrClosed
	}
	if id < 0 || id >= len(a.offs) {
		return nil, fmt.Errorf("store: frame %d out of range (%d frames)", id, len(a.offs))
	}
	need := FrameHeaderSize + int(a.sizes[id])
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	if _, err := a.f.ReadAt(dst, a.offs[id]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %s frame %d ends past the file", ErrTruncatedSegment, a.path, id)
		}
		return nil, err
	}
	payload, _, err := wal.DecodeFrame(dst)
	if err != nil {
		return nil, fmt.Errorf("%s frame %d: %w", a.path, id, err)
	}
	if int32(len(payload)) != a.sizes[id] {
		return nil, fmt.Errorf("%w: %s frame %d declares %d payload bytes, writer recorded %d",
			ErrCorruptSegment, a.path, id, len(payload), a.sizes[id])
	}
	return payload, nil
}

// Sync flushes the segment file to stable storage.
func (a *FileArena) Sync() error {
	if a.f == nil {
		return ErrClosed
	}
	return a.f.Sync()
}

// Close closes the segment file without removing it; see
// CloseAndRemove.
func (a *FileArena) Close() error {
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}

// CloseAndRemove closes the arena and deletes its segment file —
// spilled pages are one build's scratch, never a durable artifact.
func (a *FileArena) CloseAndRemove() error {
	err := a.Close()
	if rmErr := os.Remove(a.path); rmErr != nil && !os.IsNotExist(rmErr) {
		err = errors.Join(err, rmErr)
	}
	return err
}
