package shard

// The all-gather rendezvous of one partitioned freeze. The parties of a
// Server's publication (prune.Parties) resolve what is global to the
// graph — degree vectors, row sums, histograms, thresholds, selection
// cuts, counts — by all-gathering one Go value each a round. Every
// party contributes its value for a round and blocks until all n values
// of that round are present, then reads them back in slot (party) order
// — the deterministic merge order the decisions require. The values are
// shared, not copied: every participant of a round reads them, so none
// may mutate a value once it has contributed or received it. A
// cross-process tier would ship the write-ahead log or snapshots, not
// these rounds.
//
// Rounds are matched by per-slot call index, not by any global counter:
// slot s's r-th Gather call joins round r. Every party of a freeze runs
// the identical round sequence (same pruning scheme, same gathered
// values at every branch point), so call indexes align by construction
// even though the parties run concurrently. An exchange serves one
// freeze and is garbage with it.
//
// Failure: a party that dies mid-freeze would leave its peers waiting
// forever, so it poisons the exchange — every current and future Gather
// returns the poison error, and the peers' freezes fail in turn (each
// party's rows exist nowhere else).

import "sync"

// Exchange is the all-gather rendezvous of one freeze's n parties. Safe
// for concurrent use by them.
type Exchange struct {
	n int

	mu   sync.Mutex
	cond *sync.Cond
	err  error // poison; sticky

	// rounds[r] is round r; calls[s] is slot s's next round.
	rounds []*exchangeRound
	calls  []int
}

// exchangeRound collects the values of one round.
type exchangeRound struct {
	values []any
	filled int
}

// NewExchange creates an exchange for n participating parties.
func NewExchange(n int) *Exchange {
	e := &Exchange{n: n, calls: make([]int, n)}
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
	if r == len(e.rounds) {
		e.rounds = append(e.rounds, &exchangeRound{values: make([]any, e.n)})
	}
	rd := e.rounds[r]
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
	return rd.values, nil
}

// Poison fails the exchange permanently: every blocked and future
// Gather returns err, which must not be nil. The first poison wins;
// later calls are no-ops.
func (e *Exchange) Poison(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}
