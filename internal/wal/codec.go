package wal

// The WAL payload codec for insert batches. One record is one admitted
// InsertAll batch; the encoding is a plain deterministic concatenation
// (uvarint counts, length-prefixed strings), so identical batches encode
// to identical bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"blast/internal/model"
)

// AppendBatch encodes a batch of profiles onto dst and returns the
// extended slice.
func AppendBatch(dst []byte, batch []model.Profile) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		dst = appendProfile(dst, &batch[i])
	}
	return dst
}

// AppendOwnedBatch encodes one shard's owned subset of a batch onto
// dst: the full batch length, the owned count, then the owned profiles
// each prefixed with its position in the batch, in batch order. No
// server path journals through it or reads it back any more: it remains
// only because the benchmark's standalone WAL probe (bench/e2e's
// surface.go) encodes with it, and goes when that probe moves to
// AppendBatch.
func AppendOwnedBatch(dst []byte, batch []model.Profile, owns func(index int) bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	n := 0
	for i := range batch {
		if owns(i) {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range batch {
		if !owns(i) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i))
		dst = appendProfile(dst, &batch[i])
	}
	return dst
}

func appendProfile(dst []byte, p *model.Profile) []byte {
	dst = appendString(dst, p.ID)
	dst = binary.AppendUvarint(dst, uint64(len(p.Pairs)))
	for _, pr := range p.Pairs {
		dst = appendString(dst, pr.Name)
		dst = appendString(dst, pr.Value)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

var errTruncatedBatch = errors.New("wal: truncated batch encoding")

// DecodeBatch decodes one batch payload. Every length is bounds-checked
// against the remaining bytes before any allocation, and trailing bytes
// are an error, so arbitrary (fuzzed or corrupted) input yields an error
// rather than a panic or an over-allocation.
func DecodeBatch(data []byte) ([]model.Profile, error) {
	n, data, err := decodeUvarint(data)
	if err != nil {
		return nil, err
	}
	// A profile encodes to at least two bytes (empty id, zero pairs).
	if n > uint64(len(data)/2)+1 {
		return nil, fmt.Errorf("wal: batch claims %d profiles in %d bytes", n, len(data))
	}
	batch := make([]model.Profile, 0, n)
	for i := uint64(0); i < n; i++ {
		var p model.Profile
		if p, data, err = decodeProfile(data); err != nil {
			return nil, err
		}
		batch = append(batch, p)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after batch", len(data))
	}
	return batch, nil
}

func decodeProfile(data []byte) (model.Profile, []byte, error) {
	var p model.Profile
	var err error
	if p.ID, data, err = decodeString(data); err != nil {
		return p, nil, err
	}
	var np uint64
	if np, data, err = decodeUvarint(data); err != nil {
		return p, nil, err
	}
	if np > uint64(len(data)/2)+1 {
		return p, nil, fmt.Errorf("wal: profile claims %d pairs in %d bytes", np, len(data))
	}
	p.Pairs = make([]model.Pair, 0, np)
	for j := uint64(0); j < np; j++ {
		var pr model.Pair
		if pr.Name, data, err = decodeString(data); err != nil {
			return p, nil, err
		}
		if pr.Value, data, err = decodeString(data); err != nil {
			return p, nil, err
		}
		p.Pairs = append(p.Pairs, pr)
	}
	return p, data, nil
}

func decodeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, errTruncatedBatch
	}
	return v, data[n:], nil
}

func decodeString(data []byte) (string, []byte, error) {
	n, data, err := decodeUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(data)) {
		return "", nil, errTruncatedBatch
	}
	return string(data[:n]), data[n:], nil
}
