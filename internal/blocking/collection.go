// Package blocking implements the redundancy-positive blocking substrate
// of BLAST: Token Blocking (schema-agnostic), its loosely schema-aware and
// schema-based variants (driven by a pluggable key function), and the two
// block-cleaning steps of the paper's workflow, Block Purging and Block
// Filtering (Section 4.1).
//
// A Collection is stored as flat arrays in key order: one key slab with
// uint32 offsets, per-block member offsets and E1/E2 boundaries, one
// members array (E1 then E2 per block, ascending) and one entropy per
// block — 4 bytes a membership and 20 bytes plus the key a block. The
// arrays are immutable once built, so Clone shares them; a writer's
// appends go to a small per-clone tail (see Appender).
package blocking

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"blast/internal/model"
)

// Block is a set of profiles indexed under one blocking key. For
// clean-clean ER the two sides are kept separate (P1 from E1, P2 from E2)
// because only cross-source comparisons are valid; dirty ER uses P1 only.
type Block struct {
	// Key is the blocking key that produced the block.
	Key string
	// P1 holds global profile ids from E1 (or all profiles for dirty ER).
	P1 []int32
	// P2 holds global profile ids from E2; nil for dirty ER.
	P2 []int32
	// Entropy is h(b): the aggregate entropy of the attribute cluster the
	// key was derived from (Section 3.1.3). Schema-agnostic blocking sets
	// it to 1 so that entropy-weighted schemes degrade gracefully.
	Entropy float64
}

// Size returns the number of profiles in the block.
func (b *Block) Size() int { return len(b.P1) + len(b.P2) }

// Comparisons returns ||b||, the number of comparisons the block entails:
// |P1|*|P2| for clean-clean blocks, n*(n-1)/2 for dirty blocks.
func (b *Block) Comparisons() int64 {
	if b.P2 != nil {
		return int64(len(b.P1)) * int64(len(b.P2))
	}
	n := int64(len(b.P1))
	return n * (n - 1) / 2
}

// ForEachPair invokes fn for every comparison (u, v) entailed by the
// block, with u < v in global-id order for dirty blocks and u from E1,
// v from E2 for clean-clean blocks.
func (b *Block) ForEachPair(fn func(u, v int32)) {
	if b.P2 != nil {
		for _, u := range b.P1 {
			for _, v := range b.P2 {
				fn(u, v)
			}
		}
		return
	}
	for i := 0; i < len(b.P1); i++ {
		for j := i + 1; j < len(b.P1); j++ {
			fn(b.P1[i], b.P1[j])
		}
	}
}

// comparisons is ||b|| of a block with n1 E1 members (all of them for
// dirty ER) and n2 E2 members.
func comparisons(kind model.Kind, n1, n2 int) int64 {
	if kind == model.CleanClean {
		return int64(n1) * int64(n2)
	}
	return int64(n1) * int64(n1-1) / 2
}

// Collection is a block collection B together with the dataset geometry
// needed to interpret profile ids. The zero value with Kind, NumProfiles
// and Split set is an empty collection.
type Collection struct {
	// Kind records whether blocks are clean-clean or dirty.
	Kind model.Kind
	// NumProfiles is the total number of profiles of the dataset.
	NumProfiles int
	// Split is the global id of the first E2 profile (clean-clean only).
	Split int

	// The base, never written once built: block i's key is
	// keys[keyOff[i]:keyOff[i+1]], its members members[start[i]:start[i+1]],
	// E1 before mid[i] (the block's end for dirty ER).
	keys    string
	keyOff  []uint32
	start   []int32
	mid     []int32
	members []int32
	entropy []float64

	// tail is what this collection's writer appended (nil before the
	// first append): members added to base blocks, on the side appends
	// grow (E2 for clean-clean) and above every base member, and the
	// blocks materialised from pending keys, numbered after the base.
	tail *tail
}

type tail struct {
	grown  map[int32][]int32
	blocks []Block
	index  map[string]int32
}

// Len returns |B|, the number of blocks.
func (c *Collection) Len() int {
	if c.tail != nil {
		return len(c.mid) + len(c.tail.blocks)
	}
	return len(c.mid)
}

// Key returns block i's key.
func (c *Collection) Key(i int) string {
	if nb := len(c.mid); i >= nb {
		return c.tail.blocks[i-nb].Key
	}
	return c.keys[c.keyOff[i]:c.keyOff[i+1]]
}

// Entropy returns block i's entropy h(b).
func (c *Collection) Entropy(i int) float64 {
	if nb := len(c.mid); i >= nb {
		return c.tail.blocks[i-nb].Entropy
	}
	return c.entropy[i]
}

// Members returns the members of block i on side 0 (E1, or all of them
// for dirty ER) or side 1 (E2) as two ascending runs: the base's, and the
// one this collection's writer appended. Both are read-only.
func (c *Collection) Members(i, side int) (run, appended []int32) {
	if c.tail != nil {
		return c.tailMembers(i, side)
	}
	return c.run(i, side), nil
}

// run is side s of base block i.
func (c *Collection) run(i, s int) []int32 {
	lo, hi := c.start[i], c.mid[i]
	if s == 1 {
		lo, hi = hi, c.start[i+1]
	}
	return c.members[lo:hi:hi]
}

func (c *Collection) tailMembers(i, side int) (run, appended []int32) {
	if nb := len(c.mid); i >= nb {
		b := &c.tail.blocks[i-nb]
		return [2][]int32{b.P1, b.P2}[side], nil
	}
	if (side == 1) == (c.Kind == model.CleanClean) {
		appended = c.tail.grown[int32(i)]
	}
	return c.run(i, side), appended
}

// Block returns block i in the exported form, its slices read-only views
// of the collection — except a side this collection's writer grew, which
// is assembled into a fresh slice.
func (c *Collection) Block(i int) Block {
	if nb := len(c.mid); i >= nb {
		b := c.tail.blocks[i-nb]
		b.P1 = b.P1[:len(b.P1):len(b.P1)]
		return b
	}
	b := Block{Key: c.Key(i), Entropy: c.entropy[i]}
	run, more := c.Members(i, 0)
	b.P1 = append(run, more...)
	if c.Kind == model.CleanClean {
		run, more = c.Members(i, 1)
		b.P2 = append(run, more...)
	}
	return b
}

// Comparisons returns ||b|| of block i.
func (c *Collection) Comparisons(i int) int64 {
	p1, more1 := c.Members(i, 0)
	p2, more2 := c.Members(i, 1)
	return comparisons(c.Kind, len(p1)+len(more1), len(p2)+len(more2))
}

// AggregateCardinality returns ||B|| = sum of per-block comparisons
// (double-counting pairs that co-occur in several blocks, as the paper's
// PQ denominator does).
func (c *Collection) AggregateCardinality() int64 {
	var n int64
	for i := 0; i < c.Len(); i++ {
		n += c.Comparisons(i)
	}
	return n
}

// eachRun calls fn with every run of members, block by block in
// ascending order (see Members).
func (c *Collection) eachRun(fn func(b int, run []int32)) {
	for b := 0; b < c.Len(); b++ {
		for side := 0; side < 2; side++ {
			run, more := c.Members(b, side)
			fn(b, run)
			fn(b, more)
		}
	}
}

// ProfileBlockCounts returns |B_i| for every profile: the number of blocks
// each profile appears in.
func (c *Collection) ProfileBlockCounts() []int32 {
	counts := make([]int32, c.NumProfiles)
	c.eachRun(func(_ int, run []int32) {
		for _, p := range run {
			counts[p]++
		}
	})
	return counts
}

// Inverse is the profile → blocks index of a collection, two exactly
// sized arrays: profile p's blocks, ascending, are
// Blocks[Offsets[p]:Offsets[p+1]]. Built where needed, never retained by
// a collection.
type Inverse struct {
	Offsets []int64
	Blocks  []int32
}

// NewInverse indexes the collection's memberships by profile.
func NewInverse(c *Collection) *Inverse {
	next := c.ProfileBlockCounts()
	inv := &Inverse{Offsets: make([]int64, len(next)+1)}
	for p, n := range next {
		inv.Offsets[p+1] = inv.Offsets[p] + int64(n)
		next[p] = 0
	}
	inv.Blocks = make([]int32, inv.Offsets[len(next)])
	c.eachRun(func(b int, run []int32) {
		for _, p := range run {
			inv.Blocks[inv.Offsets[p]+int64(next[p])] = int32(b)
			next[p]++
		}
	})
	return inv
}

// Of returns profile p's blocks, ascending.
func (ix *Inverse) Of(p int32) []int32 { return ix.Blocks[ix.Offsets[p]:ix.Offsets[p+1]] }

// DistinctPairs returns the set of distinct comparisons entailed by the
// collection, keyed by model.IDPair.Key. Useful for PC computation and
// small-scale analyses; cost is proportional to ||B||.
func (c *Collection) DistinctPairs() map[uint64]struct{} {
	set := make(map[uint64]struct{})
	for i := 0; i < c.Len(); i++ {
		b := c.Block(i)
		b.ForEachPair(func(u, v int32) {
			set[model.MakePair(int(u), int(v)).Key()] = struct{}{}
		})
	}
	return set
}

// Clone returns a collection that evolves independently of c: the base
// arrays are shared (nothing writes them) and only the tail of appends is
// copied, its member lists clipped so either side's next append moves.
func (c *Collection) Clone() *Collection {
	out := *c
	if t := c.tail; t != nil {
		out.tail = &tail{grown: maps.Clone(t.grown), blocks: slices.Clone(t.blocks), index: maps.Clone(t.index)}
		for b, ids := range out.tail.grown {
			out.tail.grown[b] = slices.Clip(ids)
		}
		for i := range out.tail.blocks {
			out.tail.blocks[i].P1 = slices.Clip(out.tail.blocks[i].P1)
		}
	}
	return &out
}

// lookup finds the block keyed key: a binary search over the base's
// ascending keys, then the tail's map.
func (c *Collection) lookup(key string) (int32, bool) {
	nb := len(c.mid)
	if i := sort.Search(nb, func(i int) bool { return c.Key(i) >= key }); i < nb && c.Key(i) == key {
		return int32(i), true
	}
	if c.tail == nil {
		return 0, false
	}
	b, ok := c.tail.index[key]
	return b, ok
}

// layout writes a base of m blocks, t memberships and k key bytes into
// arrays allocated at exactly those sizes, one block at a time in order.
type layout struct {
	c    *Collection
	keys strings.Builder
	n    int
}

func newLayout(kind model.Kind, numProfiles, split, m, t, k int) *layout {
	l := &layout{c: &Collection{
		Kind: kind, NumProfiles: numProfiles, Split: split,
		keyOff: make([]uint32, m+1), start: make([]int32, m+1), mid: make([]int32, m),
		members: make([]int32, t), entropy: make([]float64, m),
	}}
	l.keys.Grow(k)
	return l
}

// add appends a block of n1 E1 and n2 E2 members and returns the
// position its members are to be written at.
func (l *layout) add(key string, entropy float64, n1, n2 int) int32 {
	c, i := l.c, l.n
	at := c.start[i]
	c.mid[i] = at + int32(n1)
	c.start[i+1] = c.mid[i] + int32(n2)
	l.keys.WriteString(key)
	c.keyOff[i+1] = uint32(l.keys.Len())
	c.entropy[i] = entropy
	l.n++
	return at
}

func (l *layout) done() *Collection {
	l.c.keys = l.keys.String()
	return l.c
}

// FromBlocks lays blocks out as a collection, in the order given. Members
// must be ascending per side and keys strictly ascending for Validate and
// the Appender's key lookup; the builders guarantee both.
func FromBlocks(kind model.Kind, numProfiles, split int, blocks []Block) *Collection {
	t, k := 0, 0
	for i := range blocks {
		t += blocks[i].Size()
		k += len(blocks[i].Key)
	}
	l := newLayout(kind, numProfiles, split, len(blocks), t, k)
	for _, b := range blocks {
		at := l.add(b.Key, b.Entropy, len(b.P1), len(b.P2))
		copy(l.c.members[at+int32(copy(l.c.members[at:], b.P1)):], b.P2)
	}
	return l.done()
}

// Validate checks structural invariants: monotone offsets that end at
// the arrays' ends, mid consistent with the kind, strictly ascending base
// keys, appended keys found where they are, and per block side ids in
// range, on the side Split puts them and strictly ascending (so no
// profile repeats within a block).
//
//blast:allow deadapi -- structural check of blocking TestValidateCatchesCorruption and the Phase 2 equivalence tests, graph TestBuildCSRMatchesBuildOnRandomCollections
func (c *Collection) Validate() error {
	nb := len(c.mid)
	if nb > 0 && (int(c.start[nb]) != len(c.members) || int(c.keyOff[nb]) != len(c.keys)) {
		return fmt.Errorf("blocking: offsets of %d blocks do not span the arrays", nb)
	}
	for i := 0; i < nb; i++ {
		if c.start[i] > c.mid[i] || c.mid[i] > c.start[i+1] || c.keyOff[i] > c.keyOff[i+1] ||
			c.Kind == model.Dirty && c.mid[i] != c.start[i+1] {
			return fmt.Errorf("blocking: block %d has inconsistent offsets", i)
		}
		if i > 0 && c.Key(i-1) >= c.Key(i) {
			return fmt.Errorf("blocking: block keys not strictly ascending at %q", c.Key(i))
		}
	}
	for i := 0; i < c.Len(); i++ {
		b := c.Block(i)
		if j, ok := c.lookup(b.Key); !ok || int(j) != i {
			return fmt.Errorf("blocking: block %q not found at %d", b.Key, i)
		}
		for side, ids := range [][]int32{b.P1, b.P2} {
			for k, p := range ids {
				if int(p) < 0 || int(p) >= c.NumProfiles {
					return fmt.Errorf("blocking: block %q id %d out of range", b.Key, p)
				}
				if c.Kind == model.CleanClean && (side == 1) != (int(p) >= c.Split) {
					return fmt.Errorf("blocking: block %q id %d on wrong side", b.Key, p)
				}
				if k > 0 && ids[k-1] >= p {
					return fmt.Errorf("blocking: block %q repeats or misorders id %d", b.Key, p)
				}
			}
		}
	}
	return nil
}
