package shard

// On-disk snapshot persistence. A published Snapshot is already the
// natural durable unit — immutable flat arrays, tagged with its epoch
// and its position in the insert sequence — so serialization is a plain
// deterministic layout with one trailing checksum. A file holds one
// whole published state, every row resident:
//
//	[8]  magic "BLSNAP04"
//	uvarint Epoch, Batches, NumProfiles, NumEdges, RetainedPairs
//	uvarint len(Offsets), uvarint delta-encoded Offsets
//	uvarint len(Neighbors), [4]xN little-endian Neighbors
//	uvarint len(Weights),   [8]xN little-endian float64 bits
//	[1] Theta presence, then uvarint len + [8]xN float64 bits if present
//	[4] little-endian CRC-32C of everything above
//
// The entry arrays hold the retained rows only, so a file is a few
// hundred kilobytes where the blocking graph it was pruned from runs to
// tens of megabytes. Files of the earlier layouts (BLSNAP01, BLSNAP02:
// every entry of the graph plus a retention bitset; BLSNAP03: one
// shard's owned rows) are refused by name (ErrSnapshotVersion); recovery
// then takes its ordinary fallback to older files and WAL replay.
//
// Decoding fails closed: the checksum is verified first, every length is
// bounds-checked against the remaining bytes before allocation, and the
// structural invariants a Snapshot's readers rely on (offset monotonicity,
// array-length agreement, strictly ascending in-range rows, positive
// finite weights, the entry count the retained pairs entail) are
// re-validated — a corrupted or torn snapshot file is an error, never a
// partially-trusted state. Files are written through wal.WriteFileAtomic
// so a crash mid-write can never clobber the previous valid snapshot.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"blast/internal/wal"
)

var snapMagic = [8]byte{'B', 'L', 'S', 'N', 'A', 'P', '0', '4'}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot serializes a snapshot into a self-checking byte blob.
func EncodeSnapshot(s *Snapshot) []byte {
	n := 8 + 5*10 + 10 + len(s.Offsets)*5 + 10 + len(s.Neighbors)*4 +
		10 + len(s.Weights)*8 + 11 + len(s.Theta)*8 + 4
	buf := make([]byte, 0, n)
	buf = append(buf, snapMagic[:]...)
	buf = binary.AppendUvarint(buf, s.Epoch)
	buf = binary.AppendUvarint(buf, uint64(s.Batches))
	buf = binary.AppendUvarint(buf, uint64(s.NumProfiles))
	buf = binary.AppendUvarint(buf, uint64(s.NumEdges))
	buf = binary.AppendUvarint(buf, uint64(s.RetainedPairs))
	buf = binary.AppendUvarint(buf, uint64(len(s.Offsets)))
	prev := int64(0)
	for _, o := range s.Offsets {
		buf = binary.AppendUvarint(buf, uint64(o-prev))
		prev = o
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Neighbors)))
	for _, v := range s.Neighbors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Weights)))
	for _, w := range s.Weights {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	if s.Theta == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(s.Theta)))
		for _, th := range s.Theta {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(th))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, snapCRC))
}

var errSnapCorrupt = errors.New("shard: corrupt snapshot")

// ErrSnapshotVersion reports a well-formed snapshot file of a layout
// this build no longer reads.
var ErrSnapshotVersion = errors.New("shard: unsupported snapshot version")

// DecodeSnapshot deserializes and validates a snapshot blob.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: %d bytes", errSnapCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, snapCRC) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", errSnapCorrupt)
	}
	switch magic := string(body[:8]); magic {
	case string(snapMagic[:]):
	case "BLSNAP01", "BLSNAP02", "BLSNAP03":
		return nil, fmt.Errorf("%w %q", ErrSnapshotVersion, magic)
	default:
		return nil, fmt.Errorf("shard: bad snapshot magic %q", magic)
	}
	d := &snapDecoder{data: body[8:]}
	s := &Snapshot{
		Epoch:         d.uvarint(),
		Batches:       int64(d.uvarint()),
		NumProfiles:   int(d.uvarint()),
		NumEdges:      int(d.uvarint()),
		RetainedPairs: int(d.uvarint()),
	}
	no := d.count(1) // at most one uvarint byte per offset delta
	s.Offsets = make([]int64, 0, no)
	prev := int64(0)
	for i := 0; i < no; i++ {
		prev += int64(d.uvarint())
		s.Offsets = append(s.Offsets, prev)
	}
	nn := d.count(4)
	s.Neighbors = make([]int32, nn)
	for i := range s.Neighbors {
		s.Neighbors[i] = int32(d.u32())
	}
	nw := d.count(8)
	s.Weights = make([]float64, nw)
	for i := range s.Weights {
		s.Weights[i] = math.Float64frombits(d.u64())
	}
	if d.byte() == 1 {
		nt := d.count(8)
		s.Theta = make([]float64, nt)
		for i := range s.Theta {
			s.Theta[i] = math.Float64frombits(d.u64())
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errSnapCorrupt, len(d.data))
	}
	if err := validateSnapshot(s); err != nil {
		return nil, err
	}
	return s, nil
}

// validateSnapshot re-checks the structural invariants snapshot readers
// assume, so a decoded snapshot is safe to serve from without bounds
// checks beyond the ones the live export already guarantees.
func validateSnapshot(s *Snapshot) error {
	if s.Batches < 0 || s.NumProfiles < 0 || s.NumEdges < 0 || s.RetainedPairs < 0 || s.RetainedPairs > s.NumEdges {
		return fmt.Errorf("%w: counters out of range", errSnapCorrupt)
	}
	if len(s.Offsets) != s.NumProfiles+1 {
		return fmt.Errorf("%w: %d offsets for %d profiles", errSnapCorrupt, len(s.Offsets), s.NumProfiles)
	}
	if s.Offsets[0] != 0 || s.Offsets[s.NumProfiles] != int64(len(s.Neighbors)) {
		return fmt.Errorf("%w: offset bounds", errSnapCorrupt)
	}
	if len(s.Weights) != len(s.Neighbors) {
		return fmt.Errorf("%w: entry array lengths disagree", errSnapCorrupt)
	}
	// Every retained pair sits once in each endpoint's row.
	if n := len(s.Neighbors); n != 2*s.RetainedPairs {
		return fmt.Errorf("%w: %d entries for %d retained pairs", errSnapCorrupt, n, s.RetainedPairs)
	}
	if s.Theta != nil && len(s.Theta) != s.NumProfiles {
		return fmt.Errorf("%w: %d thresholds for %d profiles", errSnapCorrupt, len(s.Theta), s.NumProfiles)
	}
	for u := 0; u < s.NumProfiles; u++ {
		lo, hi := s.Offsets[u], s.Offsets[u+1]
		// Delta decoding makes offsets nondecreasing except under int64
		// overflow from a forged delta; reject that explicitly.
		if hi < lo || hi > int64(len(s.Neighbors)) {
			return fmt.Errorf("%w: offsets not monotone", errSnapCorrupt)
		}
		for p := lo; p < hi; p++ {
			v := s.Neighbors[p]
			if v < 0 || int(v) >= s.NumProfiles || int(v) == u || (p > lo && v <= s.Neighbors[p-1]) {
				return fmt.Errorf("%w: row %d is not a strictly ascending run of other profiles", errSnapCorrupt, u)
			}
			// Every scheme retains positive weights only.
			if w := s.Weights[p]; !(w > 0) || math.IsInf(w, 1) {
				return fmt.Errorf("%w: row %d carries weight %v", errSnapCorrupt, u, w)
			}
		}
	}
	return nil
}

// snapDecoder cursors over the payload with sticky error handling; every
// count is bounds-checked against the remaining bytes (at minBytes per
// element) before the caller allocates.
type snapDecoder struct {
	data []byte
	err  error
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.err = errSnapCorrupt
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *snapDecoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)) || (minBytes > 0 && v > uint64(len(d.data)/minBytes)) {
		d.err = fmt.Errorf("%w: count %d exceeds %d remaining bytes", errSnapCorrupt, v, len(d.data))
		return 0
	}
	return int(v)
}

func (d *snapDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.err = errSnapCorrupt
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *snapDecoder) u32() uint32 {
	if d.err != nil || len(d.data) < 4 {
		d.err = errSnapCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data)
	d.data = d.data[4:]
	return v
}

func (d *snapDecoder) u64() uint64 {
	if d.err != nil || len(d.data) < 8 {
		d.err = errSnapCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

// WriteSnapshotFile atomically persists a snapshot (see
// wal.WriteFileAtomic), so the target path never holds a torn snapshot.
func WriteSnapshotFile(path string, s *Snapshot) error {
	return wal.WriteFileAtomic(path, EncodeSnapshot(s))
}

// ReadSnapshotFile loads and validates a persisted snapshot.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
