package shard

// The all-gather rendezvous of partitioned sharding. The shard writers
// of a partitioned server are the parties of one pruning decision
// (prune.Parties): they resolve what is global to the graph — degree
// vectors, row sums, histograms, thresholds, selection cuts, counts —
// by all-gathering one Go value each a round. Every shard contributes
// its value for a round and blocks until all n values of that round are
// present, then reads them back in slot (shard) order — the
// deterministic merge order the decisions require. The values are
// shared, not copied: every participant of a round reads them, so none
// may mutate a value once it has contributed or received it. A
// cross-process tier would ship the write-ahead log or snapshots, not
// these rounds.
//
// Rounds are matched by per-slot call index, not by any global counter:
// slot s's r-th Gather call joins round r. Every shard's export runs
// the identical round sequence (same pruning scheme, same gathered
// values at every branch point), so call indexes align by construction
// even though the shard workers run concurrently and may sit many
// rounds apart at any instant — consecutive exports may even overlap,
// because a shard that finished round k of export e cannot reach round
// 0 of export e+1 before every peer consumed round k. The agreement
// round of group publication (AgreeMin) shares the sequence: every
// shard takes one at every point where a publication falls due, and
// those points are the same on every shard (see Shard.apply).
//
// Failure: a shard that dies mid-export would leave its peers waiting
// forever, so the shard worker's failure hook poisons the exchange —
// every current and future Gather returns the poison error, and the
// peers' exports fail in turn (the partitioned server has no healthy
// subset: each shard's rows exist nowhere else).

import (
	"errors"
	"sync"
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

// exchangeRound collects the values of one round.
type exchangeRound struct {
	values   []any
	filled   int
	consumed int
}

// NewExchange creates an exchange for n participating shards.
func NewExchange(n int) *Exchange {
	e := &Exchange{n: n, calls: make([]uint64, n)}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Gather contributes slot's value to the slot's next round, blocks
// until every slot has contributed to that round, and returns all n
// values in slot order. The returned slice and the values are shared by
// every participant of the round and must not be mutated.
// Returns the poison error (current and queued waiters alike) once
// Poison has been called.
func (e *Exchange) Gather(slot int, v any) ([]any, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	r := e.calls[slot]
	e.calls[slot]++
	for int(r-e.base) >= len(e.rounds) {
		e.rounds = append(e.rounds, &exchangeRound{values: make([]any, e.n)})
	}
	rd := e.rounds[r-e.base]
	rd.values[slot] = v
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
	return rd.values, nil
}

// AgreeMin is the agreement round of group publication: every shard
// contributes the number of insert batches it has received and all of
// them get back the smallest — the newest position of the insert stream
// every shard already holds, hence one they can all apply through
// without waiting for input. Like any round it returns the poison error
// instead of waiting on a dead peer.
func (e *Exchange) AgreeMin(slot int, received int64) (int64, error) {
	values, err := e.Gather(slot, received)
	if err != nil {
		return 0, err
	}
	lowest := received
	for _, v := range values {
		lowest = min(lowest, v.(int64))
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
