package model

import "sort"

// IDPair is an unordered pair of profiles identified by global ids, stored
// canonically with U < V.
type IDPair struct {
	U, V int32
}

// MakePair returns the canonical form of the unordered pair (u, v).
func MakePair(u, v int) IDPair {
	if u > v {
		u, v = v, u
	}
	return IDPair{U: int32(u), V: int32(v)}
}

// Key packs the pair into a single uint64 suitable for map keys and
// sorting. Canonical order is preserved: Key(a) < Key(b) iff a < b in
// (U, V) lexicographic order.
func (p IDPair) Key() uint64 {
	return uint64(uint32(p.U))<<32 | uint64(uint32(p.V))
}

// PairFromKey is the inverse of IDPair.Key.
func PairFromKey(k uint64) IDPair {
	return IDPair{U: int32(k >> 32), V: int32(uint32(k))}
}

// GroundTruth is the set of matching profile pairs of a dataset, i.e. the
// duplicates D_E of the paper's metrics section. Pairs are stored in
// canonical order.
type GroundTruth struct {
	set map[uint64]struct{}
}

// NewGroundTruth returns an empty ground truth.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{set: make(map[uint64]struct{})}
}

// Add records the unordered pair (u, v) as a match. Self-pairs are ignored.
func (g *GroundTruth) Add(u, v int) {
	if u == v {
		return
	}
	g.set[MakePair(u, v).Key()] = struct{}{}
}

// Contains reports whether (u, v) is a known match.
func (g *GroundTruth) Contains(u, v int) bool {
	_, ok := g.set[MakePair(u, v).Key()]
	return ok
}

// Size returns |D_E|, the number of matching pairs.
func (g *GroundTruth) Size() int { return len(g.set) }

// Pairs returns all matching pairs sorted canonically. The slice is owned
// by the caller.
func (g *GroundTruth) Pairs() []IDPair {
	keys := make([]uint64, 0, len(g.set))
	for k := range g.set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ps := make([]IDPair, len(keys))
	for i, k := range keys {
		ps[i] = PairFromKey(k)
	}
	return ps
}

// ForEach invokes fn for every matching pair in unspecified order until
// fn returns false. Unlike Pairs it allocates and sorts nothing — the
// right iteration for validation and membership scans.
func (g *GroundTruth) ForEach(fn func(IDPair) bool) {
	for k := range g.set {
		if !fn(PairFromKey(k)) {
			return
		}
	}
}
