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
// The on-disk format is deliberately minimal and self-checking:
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Magic is the 8-byte header every segment file starts with.
const Magic = "BLSEG001"

// maxFramePayload bounds a single frame's declared payload length; a
// header announcing more than this is corruption, not a huge frame (the
// paged CSR writes pages of at most a few MiB).
const maxFramePayload = 1 << 30

var (
	// ErrCorruptSegment reports a segment frame whose bytes fail
	// validation: bad magic, an implausible header, or a payload whose
	// checksum does not match. Readers must fail closed on it — the
	// frame's bytes are not usable in any part.
	ErrCorruptSegment = errors.New("store: corrupt segment")
	// ErrTruncatedSegment reports a segment file that ends mid-header or
	// mid-payload — the torn-tail shape of an interrupted write. Distinct
	// from ErrCorruptSegment so fault-injection tests can pin which
	// failure mode a given fault produces.
	ErrTruncatedSegment = errors.New("store: truncated segment")
	// ErrClosed reports an operation on a closed arena.
	ErrClosed = errors.New("store: arena closed")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FrameHeaderSize is the bytes a frame adds in front of its payload; a
// Load into a buffer with capacity for header plus payload allocates
// nothing.
const FrameHeaderSize = 8

// AppendFrame appends the CRC-framed encoding of payload to dst and
// returns the extended slice. It is the single encoder of the frame
// format, shared by the file arena and the fuzz round-trip.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrame validates and decodes the first frame of b, returning its
// payload (aliasing b) and the remaining bytes. A header that runs past
// the end of b is ErrTruncatedSegment; an implausible length or a
// checksum mismatch is ErrCorruptSegment.
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes left mid-header", ErrTruncatedSegment, len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("%w: implausible frame length %d", ErrCorruptSegment, n)
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	body := b[FrameHeaderSize:]
	if uint32(len(body)) < n {
		return nil, nil, fmt.Errorf("%w: %d bytes left of a %d-byte payload", ErrTruncatedSegment, len(body), n)
	}
	payload = body[:n]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, nil, fmt.Errorf("%w: payload checksum %08x, frame declares %08x", ErrCorruptSegment, got, want)
	}
	return payload, body[n:], nil
}

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
	a.buf = AppendFrame(a.buf[:0], payload)
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
	payload, _, err := DecodeFrame(dst)
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
