package shard

// The aggregate exchange of partitioned sharding. Partitioned shard
// writers resolve graph-global pruning inputs (degree vectors, weight
// sums, histogram cuts, threshold vectors, top-k selection cuts) by
// all-gathering compact per-shard frames: every shard contributes its
// frame for a round and blocks until all n frames of that round are
// present, then reads them back in slot (shard) order — the
// deterministic merge order the refold reductions require.
//
// Rounds are matched by per-slot call index, not by any global counter:
// slot s's r-th Gather call joins round r. Every shard's export runs
// the identical round sequence (same pruning scheme, same globally
// merged decisions at every branch point), so call indexes align by
// construction even though the shard workers run concurrently and may
// sit many rounds apart at any instant — consecutive exports may even
// overlap, because a shard that finished round k of export e cannot
// reach round 0 of export e+1 before every peer consumed round k. The
// agreement round of group publication (AgreeMin) shares the sequence:
// every shard takes one at every point where a publication falls due,
// and those points are the same on every shard (see Shard.apply).
//
// Failure: a shard that dies mid-export would leave its peers waiting
// forever, so the shard worker's failure hook poisons the exchange —
// every current and future Gather returns the poison error, and the
// peers' exports fail in turn (the partitioned server has no healthy
// subset: each shard's rows exist nowhere else).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"blast/internal/model"
)

// Exchange is the all-gather rendezvous of one partitioned server's
// shard set. Safe for concurrent use by its n participants.
type Exchange struct {
	n int

	mu   sync.Mutex
	cond *sync.Cond
	err  error // poison; sticky

	// rounds[i] is round base+i; calls[s] is slot s's next round.
	rounds []*exchangeRound
	base   uint64
	calls  []uint64
}

// exchangeRound collects the frames of one round.
type exchangeRound struct {
	frames   [][]byte
	filled   int
	consumed int
}

// NewExchange creates an exchange for n participating shards.
func NewExchange(n int) *Exchange {
	e := &Exchange{n: n, calls: make([]uint64, n)}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Gather contributes slot's frame to the slot's next round, blocks
// until every slot has contributed to that round, and returns all n
// frames in slot order. The returned slice and the peer frames are
// shared by every participant of the round and must not be mutated.
// Returns the poison error (current and queued waiters alike) once
// Poison has been called.
func (e *Exchange) Gather(slot int, frame []byte) ([][]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	r := e.calls[slot]
	e.calls[slot]++
	for int(r-e.base) >= len(e.rounds) {
		e.rounds = append(e.rounds, &exchangeRound{frames: make([][]byte, e.n)})
	}
	rd := e.rounds[r-e.base]
	rd.frames[slot] = frame
	rd.filled++
	if rd.filled == e.n {
		e.cond.Broadcast()
	}
	for rd.filled < e.n && e.err == nil {
		e.cond.Wait()
	}
	if e.err != nil {
		return nil, e.err
	}
	rd.consumed++
	// Retire fully consumed rounds off the front so a long-lived
	// exchange holds at most the rounds still in flight.
	for len(e.rounds) > 0 && e.rounds[0].consumed == e.n {
		e.rounds[0] = nil
		e.rounds = e.rounds[1:]
		e.base++
	}
	return rd.frames, nil
}

// AgreeMin is the agreement round of group publication: every shard
// contributes the number of insert batches it has received and all of
// them get back the smallest — the newest position of the insert stream
// every shard already holds, hence one they can all apply through
// without waiting for input. One 8-byte frame per shard; like any round
// it returns the poison error instead of waiting on a dead peer.
func (e *Exchange) AgreeMin(slot int, received int64) (int64, error) {
	frames, err := e.Gather(slot, binary.LittleEndian.AppendUint64(nil, uint64(received)))
	if err != nil {
		return 0, err
	}
	lowest := received
	for _, f := range frames {
		if len(f) != 8 {
			return 0, fmt.Errorf("shard: agreement frame of %d bytes", len(f))
		}
		lowest = min(lowest, int64(binary.LittleEndian.Uint64(f)))
	}
	return lowest, nil
}

// Poison fails the exchange permanently: every blocked and future
// Gather returns err. The first poison wins; later calls are no-ops.
func (e *Exchange) Poison(err error) {
	if err == nil {
		err = errors.New("shard: exchange poisoned")
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// Err returns the poison error, if any.
func (e *Exchange) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// ---- frame codec ----
//
// Exchange frames are typed sections with fixed-width little-endian
// payloads behind uvarint length prefixes. Fixed width (never varint)
// for the numeric payloads keeps encoding bit-exact for float64 — the
// refold reductions consume the identical bits the producer held — and
// position-independent, so a reader steps sections in the exact order
// the writer appended them. The codec is deliberately minimal: frames
// live only for one in-process round, but keeping them as plain bytes
// (rather than shared Go slices) pins down exactly what crosses the
// shard boundary and keeps the format portable to a networked exchange.

// FrameWriter appends typed sections onto one exchange frame.
type FrameWriter struct {
	buf []byte
}

// Bytes returns the encoded frame.
func (w *FrameWriter) Bytes() []byte { return w.buf }

// Int32s appends a []int32 section.
func (w *FrameWriter) Int32s(v []int32) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	for _, x := range v {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(x))
	}
}

// Int64s appends a []int64 section.
func (w *FrameWriter) Int64s(v []int64) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	for _, x := range v {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(x))
	}
}

// Uint64s appends a []uint64 section.
func (w *FrameWriter) Uint64s(v []uint64) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	for _, x := range v {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, x)
	}
}

// Float64s appends a []float64 section, bit-exact.
func (w *FrameWriter) Float64s(v []float64) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	for _, x := range v {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(x))
	}
}

// Pairs appends a []model.IDPair section (two int32 per pair).
func (w *FrameWriter) Pairs(v []model.IDPair) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	for _, p := range v {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(p.U))
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(p.V))
	}
}

// FrameReader steps through the sections of one frame, in writer
// order, with sticky error handling: after the first malformed section
// every further read returns empty and Err reports the failure. A
// malformed frame is an invariant violation between shards of one
// process, so callers fail the whole export on Err.
type FrameReader struct {
	data []byte
	err  error
}

// NewFrameReader wraps an encoded frame.
func NewFrameReader(data []byte) *FrameReader { return &FrameReader{data: data} }

// Err returns the first decode failure, if any.
func (r *FrameReader) Err() error { return r.err }

// count reads a section length, bounds-checked at width bytes/element.
func (r *FrameReader) count(width int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = errors.New("shard: truncated exchange frame")
		return 0
	}
	r.data = r.data[n:]
	if v > uint64(len(r.data)/width) {
		r.err = fmt.Errorf("shard: exchange section of %d elements in %d bytes", v, len(r.data))
		return 0
	}
	return int(v)
}

// Int32s reads a []int32 section.
func (r *FrameReader) Int32s() []int32 {
	n := r.count(4)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.data))
		r.data = r.data[4:]
	}
	return out
}

// Int64s reads a []int64 section.
func (r *FrameReader) Int64s() []int64 {
	n := r.count(8)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(r.data))
		r.data = r.data[8:]
	}
	return out
}

// Uint64s reads a []uint64 section.
func (r *FrameReader) Uint64s() []uint64 {
	n := r.count(8)
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.data)
		r.data = r.data[8:]
	}
	return out
}

// Float64s reads a []float64 section, bit-exact.
func (r *FrameReader) Float64s() []float64 {
	n := r.count(8)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data))
		r.data = r.data[8:]
	}
	return out
}

// Pairs reads a []model.IDPair section.
func (r *FrameReader) Pairs() []model.IDPair {
	n := r.count(8)
	out := make([]model.IDPair, n)
	for i := range out {
		out[i].U = int32(binary.LittleEndian.Uint32(r.data))
		out[i].V = int32(binary.LittleEndian.Uint32(r.data[4:]))
		r.data = r.data[8:]
	}
	return out
}
