package wal

// Fuzz targets of the recovery scan and the batch codec. The property
// under test is the crash-recovery contract: whatever bytes end up on
// disk — torn writes, bit rot, arbitrary garbage — recovery yields a
// byte-identical prefix of the records that were appended, or fails
// closed. It never panics, never over-allocates, and never invents or
// reorders data.

import (
	"bytes"
	"testing"
)

// FuzzWALReplay builds a reference log from seed-derived records,
// applies a fuzzer-chosen corruption (truncation, bit flip, or raw
// garbage splice), and asserts the recovered records are a strict
// byte-identical prefix of the reference — with full recovery when the
// corruption landed past the valid prefix.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte("hello world this is a record stream"), uint8(4), uint16(10), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), uint16(3), uint8(1))
	f.Add([]byte("x"), uint8(1), uint16(0), uint8(2))
	f.Add([]byte(""), uint8(0), uint16(100), uint8(3))
	f.Fuzz(func(t *testing.T, seed []byte, nrec uint8, at uint16, mode uint8) {
		// Reference log: nrec records sliced deterministically from seed.
		records := make([][]byte, 0, nrec)
		data := append([]byte(nil), logMagic[:]...)
		ends := make([]int64, 0, nrec)
		for i := 0; i < int(nrec%16); i++ {
			lo := (i * 3) % (len(seed) + 1)
			hi := lo + (i*7)%(len(seed)-lo+1)
			rec := seed[lo:hi]
			records = append(records, rec)
			data = AppendFrame(data, rec)
			ends = append(ends, int64(len(data)))
		}
		// Corrupt.
		switch mode % 4 {
		case 0: // truncate
			cut := int(at) % (len(data) + 1)
			data = data[:cut]
		case 1: // bit flip
			if len(data) > 0 {
				data = append([]byte(nil), data...)
				data[int(at)%len(data)] ^= 1 << (at % 8)
			}
		case 2: // splice garbage at the tail
			data = append(append([]byte(nil), data...), seed...)
		case 3: // pristine
		}

		recovered, rends, err := Scan(data)
		if err != nil {
			// Only header corruption may fail closed; that is fine.
			return
		}
		switch mode % 4 {
		case 0, 3: // truncation (or none): the exact surviving prefix is known
			want := 0
			for _, e := range ends {
				if e <= int64(len(data)) {
					want++
				}
			}
			if len(data) < headerSize {
				want = 0
			}
			if len(recovered) != want {
				t.Fatalf("recovered %d records, want %d", len(recovered), want)
			}
		case 2: // tail splice: originals are intact; the splice may even form
			// extra valid records (that is just an append), never fewer.
			if len(recovered) < len(records) {
				t.Fatalf("tail splice lost records: %d < %d", len(recovered), len(records))
			}
		case 1: // bit flip: drops the flipped record and its suffix at most
			if len(recovered) > len(records) {
				t.Fatalf("bit flip grew the log: %d > %d", len(recovered), len(records))
			}
		}
		if mode%4 != 1 {
			// Outside the bit-flip mode nothing before the corruption point
			// changed, so surviving original records are byte-identical.
			// (A flip could in principle forge a valid boundary; CRC-32C
			// makes a silent alteration a 2^-32 event we do not model.)
			for i, rec := range recovered {
				if i < len(records) && !bytes.Equal(rec, records[i]) {
					t.Fatalf("record %d not byte-identical after corruption mode %d", i, mode%4)
				}
			}
		}
		for i, e := range rends {
			if e < int64(headerSize) || e > int64(len(data)) || (i > 0 && e <= rends[i-1]) {
				t.Fatalf("invalid end offsets %v", rends)
			}
		}
		// Recovery is idempotent: scanning the truncated valid prefix
		// yields the same records.
		valid := int64(headerSize)
		if len(rends) > 0 {
			valid = rends[len(rends)-1]
		}
		if int64(len(data)) >= valid {
			again, _, err := Scan(data[:valid])
			if err != nil || len(again) != len(recovered) {
				t.Fatalf("rescan of valid prefix: %d records, err %v", len(again), err)
			}
		}
	})
}

// FuzzBatchCodec feeds arbitrary bytes to DecodeBatch (must never
// panic) and round-trips whatever decodes.
func FuzzBatchCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBatch(nil, nil))
	f.Add([]byte{2, 1, 'a', 1, 4, 'n', 'a', 'm', 'e', 2, 'o', 'k', 1, 'b', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBatch(data)
		if err != nil {
			return
		}
		enc := AppendBatch(nil, batch)
		again, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(batch) {
			t.Fatalf("round trip changed batch size %d -> %d", len(batch), len(again))
		}
		for i := range batch {
			if again[i].ID != batch[i].ID || len(again[i].Pairs) != len(batch[i].Pairs) {
				t.Fatalf("round trip changed profile %d", i)
			}
		}
	})
}
