// Package wal implements the write-ahead log of durable serving: one
// append-only file of length-prefixed, CRC-checksummed records, one per
// admitted insert batch. It also owns the record's frame codec
// (AppendFrame, DecodeFrame), which the spill segments of package store
// write and validate too.
//
// File layout:
//
//	[8]  magic "BLWAL001"
//	per record (one frame):
//	  [4] little-endian payload length
//	  [4] little-endian CRC-32C (Castagnoli) of the payload
//	  [n] payload
//
// The format is self-synchronizing only at the tail: a record is valid
// iff its full header and payload are present and the checksum matches,
// and the valid portion of a log is the longest prefix of valid records.
// Opening a log truncates everything past that prefix — a torn append
// (partial write at crash) or a corrupted tail is detected and dropped,
// never silently replayed. Corruption in the middle of the valid prefix
// also stops the scan there.
//
// Appends write the whole record with one write call on an unbuffered
// descriptor, so the bytes the OS has at any crash instant are exactly
// the bytes a recovery scan sees; fsync is batched under SyncEvery to
// trade machine-crash durability against throughput. An append that
// fails is truncated back off the file, so the log holds only records
// whose Append returned nil.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

const (
	headerSize = 8
	// FrameHeaderSize is the bytes a frame adds in front of its payload.
	FrameHeaderSize = 8
	// MaxRecordSize bounds one frame's payload (1 GiB). The limit keeps
	// a corrupted length field from driving a huge allocation during the
	// recovery scan.
	MaxRecordSize = 1 << 30
)

var logMagic = [headerSize]byte{'B', 'L', 'W', 'A', 'L', '0', '0', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrCorruptFrame reports a frame whose bytes fail validation: an
	// implausible length or a payload whose checksum does not match.
	ErrCorruptFrame = errors.New("corrupt frame")
	// ErrTruncatedFrame reports bytes that end mid-header or
	// mid-payload — the torn-tail shape of an interrupted write.
	ErrTruncatedFrame = errors.New("truncated frame")
)

// AppendFrame appends the CRC-framed encoding of payload to dst and
// returns the extended slice: the one encoder of the log's records and
// the spill segments' frames.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// DecodeFrame validates and decodes the first frame of b, returning its
// payload (aliasing b) and the remaining bytes. A header or payload that
// runs past the end of b is ErrTruncatedFrame; a length above
// MaxRecordSize or a checksum mismatch is ErrCorruptFrame.
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes left mid-header", ErrTruncatedFrame, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxRecordSize {
		return nil, nil, fmt.Errorf("%w: implausible frame length %d", ErrCorruptFrame, n)
	}
	want := binary.LittleEndian.Uint32(b[4:])
	body := b[FrameHeaderSize:]
	if uint32(len(body)) < n {
		return nil, nil, fmt.Errorf("%w: %d bytes left of a %d-byte payload", ErrTruncatedFrame, len(body), n)
	}
	payload = body[:n]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, nil, fmt.Errorf("%w: payload checksum %08x, frame declares %08x", ErrCorruptFrame, got, want)
	}
	return payload, body[n:], nil
}

// Scan parses raw log bytes into the payloads of the longest valid
// record prefix. ends[i] is the byte offset just past record i, so
// ends[len(ends)-1] (or headerSize when no record is valid) is the size
// the file must be truncated to. The returned payloads alias data.
//
// A file shorter than the header is a torn creation and scans as empty
// (zero records, nothing to preserve); a full-length header with the
// wrong magic is a foreign file and fails closed with an error.
func Scan(data []byte) (payloads [][]byte, ends []int64, err error) {
	if len(data) < headerSize {
		return nil, nil, nil
	}
	if [headerSize]byte(data[:headerSize]) != logMagic {
		return nil, nil, fmt.Errorf("wal: bad magic %q", data[:headerSize])
	}
	for rest := data[headerSize:]; ; {
		payload, next, err := DecodeFrame(rest)
		if err != nil {
			return payloads, ends, nil
		}
		rest = next
		payloads = append(payloads, payload)
		ends = append(ends, int64(len(data)-len(rest)))
	}
}

// file is the part of *os.File a Log writes through. Tests substitute
// one that fails on demand.
type file interface {
	WriteAt(b []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is an open write-ahead log positioned for appends. Not safe for
// concurrent use, except Err; the server serializes appends under its
// admission lock.
type Log struct {
	f         file
	size      int64 // bytes of valid content (header + records)
	syncEvery int   // fsync after this many appends; <= 0 never fsyncs
	pending   int   // appends since the last fsync
	closed    bool
	// broken is set when a failed append could not be truncated back
	// off the file: the log may then hold a record that was never
	// acknowledged, so it refuses every later append.
	broken atomic.Pointer[error]
}

// Open opens (creating if absent) the log at path, scans it, truncates
// any invalid tail, and returns the log positioned for appends together
// with the payloads of the valid records. syncEvery <= 0 disables
// fsync; 1 syncs every append; n > 1 batches. A log Open creates (or
// re-headers after a torn creation) has its directory synced too: the
// file's own fsync does not make its directory entry durable.
func Open(path string, syncEvery int) (*Log, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	payloads, ends, err := Scan(data)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{f: f, syncEvery: syncEvery, size: headerSize}
	if len(ends) > 0 {
		l.size = ends[len(ends)-1]
	}
	// fail releases the descriptor on an open-time error. The close error
	// is joined rather than dropped: a failed close can itself mean the
	// preceding truncate/sync never reached the disk.
	fail := func(err error) (*Log, [][]byte, error) {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, nil, err
	}
	if len(data) < headerSize {
		// Fresh or torn-at-creation file: (re)write the header.
		if err := f.Truncate(0); err != nil {
			return fail(err)
		}
		if _, err := f.WriteAt(logMagic[:], 0); err != nil {
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			return fail(err)
		}
	} else if l.size < int64(len(data)) {
		// Torn or corrupt tail: drop it so the next append starts clean.
		if err := f.Truncate(l.size); err != nil {
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	return l, payloads, nil
}

// Append writes one record, all or nothing. The write is a single
// unbuffered write call at the end of the valid prefix, fsynced when
// the SyncEvery policy falls due. Should the write or that fsync fail,
// the file is truncated back to its previous size and the error
// returned: the record is not in the log, and the next append takes
// its place. Should the truncation fail too, the log is broken (see
// Err) and refuses every later append.
func (l *Log) Append(payload []byte) error {
	if l.closed {
		return ErrClosed
	}
	if err := l.Err(); err != nil {
		return err
	}
	if int64(len(payload)) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(payload), MaxRecordSize)
	}
	buf := AppendFrame(make([]byte, 0, FrameHeaderSize+len(payload)), payload)
	_, err := l.f.WriteAt(buf, l.size)
	due := l.syncEvery > 0 && l.pending+1 >= l.syncEvery
	if err == nil && due {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			broken := fmt.Errorf("wal: append failed (%v) and truncating it back failed: %w", err, terr)
			l.broken.Store(&broken)
			return broken
		}
		return err
	}
	l.size += int64(len(buf))
	if due {
		l.pending = 0
	} else {
		l.pending++
	}
	return nil
}

// Err reports why the log is broken, or nil. A broken log holds bytes
// past its last acknowledged record that it could not remove. Err is
// safe to call concurrently with Append.
func (l *Log) Err() error {
	if err := l.broken.Load(); err != nil {
		return *err
	}
	return nil
}

// Sync flushes pending appends to stable storage regardless of the
// batching policy.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if l.pending == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.pending = 0
	return nil
}

// Close syncs pending appends and releases the file. Idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	var err error
	if l.pending > 0 {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

// WriteFileAtomic replaces the file at path with data durably: the bytes
// are written to a temporary file, synced, renamed over the target, and
// the directory synced. A crash at any point leaves either the old file
// or the new one, never a torn or empty one; on error the temporary file
// is removed and the old target is untouched.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// fail abandons the temp file, joining the close error with the
	// primary one: both describe why the data is not on disk.
	fail := func(err error) error {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a file created or renamed in it is
// durable. Tests substitute it to count the syncs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
