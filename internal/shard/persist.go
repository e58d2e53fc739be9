package shard

// On-disk snapshot persistence. A published Snapshot is already the
// natural durable unit — immutable flat arrays, tagged with its epoch
// and its position in the insert sequence — so serialization is a plain
// deterministic layout with one trailing checksum:
//
//	[8]  magic "BLSNAP01" (full replica) or "BLSNAP02" (partitioned)
//	uvarint Epoch, Batches, NumProfiles, NumEdges, RetainedPairs
//	uvarint PartShards, PartShard            (BLSNAP02 only)
//	uvarint len(Offsets), uvarint delta-encoded Offsets
//	uvarint len(Neighbors), [4]xN little-endian Neighbors
//	uvarint len(Weights),   [8]xN little-endian float64 bits
//	uvarint len(Retained),  bitset (LSB-first)
//	[1] Theta presence, then uvarint len + [8]xN float64 bits if present
//	[4] little-endian CRC-32C of everything above
//
// Decoding fails closed: the checksum is verified first, every length is
// bounds-checked against the remaining bytes before allocation, and the
// structural invariants a Snapshot's readers rely on (offset monotonicity,
// array-length agreement, neighbor ranges, retained-mark count) are
// re-validated — a corrupted or torn snapshot file is an error, never a
// partially-trusted state. Files are written to a temporary name and
// renamed into place so a crash mid-write can never clobber the previous
// valid snapshot.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

var (
	snapMagic = [8]byte{'B', 'L', 'S', 'N', 'A', 'P', '0', '1'}
	// snapMagic2 tags partitioned (owned-rows) snapshots, which carry two
	// extra header fields. A distinct magic — rather than a flag inside
	// the v1 layout — keeps v1 files byte-identical to what earlier
	// builds wrote and makes a replicated reader reject a partitioned
	// file loudly instead of misreading its header.
	snapMagic2 = [8]byte{'B', 'L', 'S', 'N', 'A', 'P', '0', '2'}
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot serializes a snapshot into a self-checking byte blob.
func EncodeSnapshot(s *Snapshot) []byte {
	n := 8 + 5*10 + 10 + len(s.Offsets)*5 + 10 + len(s.Neighbors)*4 +
		10 + len(s.Weights)*8 + 10 + (len(s.Retained)+7)/8 + 11 + len(s.Theta)*8 + 4
	buf := make([]byte, 0, n)
	if s.PartShards > 0 {
		buf = append(buf, snapMagic2[:]...)
	} else {
		buf = append(buf, snapMagic[:]...)
	}
	buf = binary.AppendUvarint(buf, s.Epoch)
	buf = binary.AppendUvarint(buf, uint64(s.Batches))
	buf = binary.AppendUvarint(buf, uint64(s.NumProfiles))
	buf = binary.AppendUvarint(buf, uint64(s.NumEdges))
	buf = binary.AppendUvarint(buf, uint64(s.RetainedPairs))
	if s.PartShards > 0 {
		buf = binary.AppendUvarint(buf, uint64(s.PartShards))
		buf = binary.AppendUvarint(buf, uint64(s.PartShard))
	}
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
	buf = binary.AppendUvarint(buf, uint64(len(s.Retained)))
	var acc byte
	for i, r := range s.Retained {
		if r {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, acc)
			acc = 0
		}
	}
	if len(s.Retained)%8 != 0 {
		buf = append(buf, acc)
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

// DecodeSnapshot deserializes and validates a snapshot blob.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: %d bytes", errSnapCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, snapCRC) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", errSnapCorrupt)
	}
	magic := [8]byte(body[:8])
	if magic != snapMagic && magic != snapMagic2 {
		return nil, fmt.Errorf("shard: bad snapshot magic %q", body[:8])
	}
	d := &snapDecoder{data: body[8:]}
	s := &Snapshot{
		Epoch:         d.uvarint(),
		Batches:       int64(d.uvarint()),
		NumProfiles:   int(d.uvarint()),
		NumEdges:      int(d.uvarint()),
		RetainedPairs: int(d.uvarint()),
	}
	if magic == snapMagic2 {
		s.PartShards = int(d.uvarint())
		s.PartShard = int(d.uvarint())
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
	// The retained mask is a bitset: its count is in elements (8 per
	// byte), so bound it against the remaining bits rather than bytes.
	nrU := d.uvarint()
	if d.err == nil && nrU > uint64(len(d.data))*8 {
		d.err = fmt.Errorf("%w: bitset of %d bits in %d bytes", errSnapCorrupt, nrU, len(d.data))
	}
	nr := int(nrU)
	if d.err == nil && len(d.data) < (nr+7)/8 {
		d.err = errSnapCorrupt
	}
	if d.err == nil {
		s.Retained = make([]bool, nr)
		for i := range s.Retained {
			s.Retained[i] = d.data[i/8]&(1<<(i%8)) != 0
		}
		d.data = d.data[(nr+7)/8:]
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
	err := validateSnapshot(s)
	if err == nil && s.PartShards > 0 {
		// Owned is derived, not encoded: the decoder is one of the makers
		// of partitioned snapshots and counts it before anyone holds s.
		for u := 0; u < s.NumProfiles; u++ {
			if s.Owns(int32(u)) {
				s.Owned++
			}
		}
	}
	return s, err
}

// validateSnapshot re-checks the structural invariants snapshot readers
// assume, so a decoded snapshot is safe to serve from without bounds
// checks beyond the ones the live export already guarantees.
func validateSnapshot(s *Snapshot) error {
	if s.Batches < 0 || s.NumProfiles < 0 {
		return fmt.Errorf("%w: negative counters", errSnapCorrupt)
	}
	if len(s.Offsets) != s.NumProfiles+1 {
		return fmt.Errorf("%w: %d offsets for %d profiles", errSnapCorrupt, len(s.Offsets), s.NumProfiles)
	}
	if s.Offsets[0] != 0 || s.Offsets[s.NumProfiles] != int64(len(s.Neighbors)) {
		return fmt.Errorf("%w: offset bounds", errSnapCorrupt)
	}
	for i := 1; i < len(s.Offsets); i++ {
		// Delta decoding makes offsets nondecreasing except under int64
		// overflow from a forged delta; reject that explicitly.
		if s.Offsets[i] < s.Offsets[i-1] {
			return fmt.Errorf("%w: offsets not monotone", errSnapCorrupt)
		}
	}
	if len(s.Weights) != len(s.Neighbors) || len(s.Retained) != len(s.Neighbors) {
		return fmt.Errorf("%w: entry array lengths disagree", errSnapCorrupt)
	}
	if s.PartShards == 0 {
		// A full replica holds both orientations of every edge.
		if 2*s.NumEdges != len(s.Neighbors) {
			return fmt.Errorf("%w: %d edges for %d entries", errSnapCorrupt, s.NumEdges, len(s.Neighbors))
		}
	} else {
		// A partitioned snapshot holds a subset of the orientations —
		// NumEdges and RetainedPairs are GLOBAL counters — so only the
		// upper bounds and the ownership shape are checkable locally.
		if s.PartShard < 0 || s.PartShard >= s.PartShards {
			return fmt.Errorf("%w: shard %d of %d", errSnapCorrupt, s.PartShard, s.PartShards)
		}
		if len(s.Neighbors) > 2*s.NumEdges {
			return fmt.Errorf("%w: %d entries for %d edges", errSnapCorrupt, len(s.Neighbors), s.NumEdges)
		}
		for u := 0; u < s.NumProfiles; u++ {
			if s.Offsets[u+1] != s.Offsets[u] && !s.Owns(int32(u)) {
				return fmt.Errorf("%w: unowned row %d populated", errSnapCorrupt, u)
			}
		}
	}
	if s.Theta != nil && len(s.Theta) != s.NumProfiles {
		return fmt.Errorf("%w: %d thresholds for %d profiles", errSnapCorrupt, len(s.Theta), s.NumProfiles)
	}
	for _, v := range s.Neighbors {
		if v < 0 || int(v) >= s.NumProfiles {
			return fmt.Errorf("%w: neighbor %d of %d profiles", errSnapCorrupt, v, s.NumProfiles)
		}
	}
	marks := 0
	for _, r := range s.Retained {
		if r {
			marks++
		}
	}
	if s.PartShards == 0 {
		if marks != 2*s.RetainedPairs {
			return fmt.Errorf("%w: %d retained marks for %d pairs", errSnapCorrupt, marks, s.RetainedPairs)
		}
	} else if marks > 2*s.RetainedPairs {
		return fmt.Errorf("%w: %d retained marks for %d pairs", errSnapCorrupt, marks, s.RetainedPairs)
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

// WriteSnapshotFile atomically persists a snapshot: the blob is written
// to a temporary file, synced, renamed over the target, and the
// directory synced, so the target path never holds a torn snapshot.
func WriteSnapshotFile(path string, s *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// fail abandons the temp file, joining the close error with the
	// primary one: both describe why the snapshot is not on disk.
	fail := func(err error) error {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(EncodeSnapshot(s)); err != nil {
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

// syncDir fsyncs a directory so a preceding rename is durable.
func syncDir(dir string) error {
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
