package blocking

// Appendable block collections: the substrate of incremental
// meta-blocking. A batch run freezes the cleaned collection once;
// append-heavy streams (the open scaling case of the blocking surveys)
// then need new profiles folded into that frozen collection without
// re-running blocking. An Appender folds profiles into a collection's
// tail: a new member of an existing block is recorded beside the block,
// a key's first valid comparison materialises a block after the base
// ones, and the base arrays are never written — which is what lets every
// shard and every inserting index Clone one base instead of copying it. Key
// lookup is a binary search over the base's ascending keys plus a map of
// the tail's; profile → blocks is an Inverse built by whoever needs it.
//
// Append semantics are deliberately "cleaning-frozen": Block Purging and
// Block Filtering decisions made when the collection was built are never
// revisited. A key that was purged or filtered away simply no longer
// exists; new profiles carrying it accumulate under a fresh pending key
// instead of resurrecting the old block's members.

import (
	"sort"

	"blast/internal/model"
)

// KeyEntropy is one blocking key of a profile being appended, together
// with the entropy h(b) its blocks inherit (1 for schema-agnostic keys).
type KeyEntropy struct {
	Key     string
	Entropy float64
}

// pendingKey accumulates the members of a key that does not (yet) form a
// block entailing at least one comparison. Singleton keys never enter
// the collection: a comparison-free block would distort |B| and |B_i|
// relative to what the key contributes, and could never be pruned away.
// Only dirty collections keep pending keys — clean-clean appends are
// E2-only, so an unknown key can never entail a cross-source comparison
// and is dropped outright.
type pendingKey struct {
	entropy float64
	p1      []int32
}

// Appender folds new profiles into an existing block collection. It owns
// the collection it wraps: between NewAppender and the last Append no
// other code may mutate the collection. It is not safe for concurrent
// use; its one caller, a blast writer, is serialized by whoever drives
// it: an Index's mutex, or a Server's one worker goroutine.
type Appender struct {
	c       *Collection
	pending map[string]*pendingKey
}

// NewAppender wraps a collection for appends. It indexes nothing: keys
// are looked up in the collection itself.
func NewAppender(c *Collection) *Appender {
	return &Appender{c: c, pending: make(map[string]*pendingKey)}
}

// Collection returns the live collection the appender maintains.
func (a *Appender) Collection() *Collection { return a.c }

// PendingKeys returns the number of keys waiting for their first valid
// comparison before materializing into blocks.
func (a *Appender) PendingKeys() int { return len(a.pending) }

// Append adds a profile with the given blocking keys to the collection
// and returns its assigned global id. Keys are deduplicated and
// processed in sorted order, so a given (collection state, key set)
// always yields the same collection.
//
// For clean-clean collections the profile joins E2 (ids at the end of
// the global id space); appending to E1 would shift every E2 id and is
// not supported. For dirty collections there is only one source.
func (a *Appender) Append(keys []KeyEntropy) int32 {
	c := a.c
	id := int32(c.NumProfiles)
	if c.tail == nil {
		c.tail = &tail{grown: make(map[int32][]int32), index: make(map[string]int32)}
	}
	t := c.tail

	// Deterministic key order: sort, then drop duplicates (first wins).
	ks := append([]KeyEntropy(nil), keys...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Key < ks[j].Key })
	for i, ke := range ks {
		if i > 0 && ke.Key == ks[i-1].Key {
			continue
		}
		if bi, ok := c.lookup(ke.Key); ok {
			if nb := int32(len(c.mid)); bi < nb {
				t.grown[bi] = append(t.grown[bi], id)
			} else if b := &t.blocks[bi-nb]; c.Kind == model.CleanClean {
				b.P2 = append(b.P2, id)
			} else {
				b.P1 = append(b.P1, id)
			}
			continue
		}
		if c.Kind == model.CleanClean {
			// Appends only ever add E2 members, so a key unknown to the
			// collection can never entail a cross-source comparison:
			// accumulating it as pending would only leak memory.
			continue
		}
		pk := a.pending[ke.Key]
		if pk == nil {
			pk = &pendingKey{entropy: ke.Entropy}
			a.pending[ke.Key] = pk
		}
		pk.p1 = append(pk.p1, id)
		nb := Block{Key: ke.Key, Entropy: pk.entropy, P1: pk.p1}
		if nb.Comparisons() == 0 {
			continue // still pending
		}
		// Materialize: the key's members finally entail a comparison.
		t.index[ke.Key] = int32(c.Len())
		t.blocks = append(t.blocks, nb)
		delete(a.pending, ke.Key)
	}
	c.NumProfiles++
	return id
}
