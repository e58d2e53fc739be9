package blocking_test

// The test-only reference of Phase 2: the map-based block building,
// Block Purging, Block Filtering and appender that the array collection
// replaced, kept verbatim in behaviour so TestCollectionMatchesReference
// can hold the builder, the cleaning steps and the append tail to it —
// in the way internal/edgelist serves Phase 3.

import (
	"math"
	"sort"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/text"
)

// refCollection is the reference's block collection: a slice of blocks.
type refCollection struct {
	Kind        model.Kind
	NumProfiles int
	Split       int
	Blocks      []blocking.Block
}

// refBuild keys every token occurrence into a map of string keys and
// deduplicates within a profile through a per-profile set.
func refBuild(ds *model.Dataset, tr text.Transform, key blocking.KeyFunc) *refCollection {
	type acc struct {
		p1, p2  []int32
		entropy float64
	}
	index := make(map[string]*acc)
	addProfile := func(global int, source int, p *model.Profile) {
		seen := make(map[string]bool)
		for _, pair := range p.Pairs {
			for _, tok := range tr.Terms(pair.Value) {
				k, h, ok := key(source, pair.Name, tok)
				if !ok || seen[k] {
					continue
				}
				seen[k] = true
				a := index[k]
				if a == nil {
					a = &acc{entropy: h}
					index[k] = a
				}
				if source == 0 {
					a.p1 = append(a.p1, int32(global))
				} else {
					a.p2 = append(a.p2, int32(global))
				}
			}
		}
	}
	for i := range ds.E1.Profiles {
		addProfile(i, 0, &ds.E1.Profiles[i])
	}
	if ds.Kind == model.CleanClean {
		for i := range ds.E2.Profiles {
			addProfile(ds.E1.Len()+i, 1, &ds.E2.Profiles[i])
		}
	}
	c := &refCollection{Kind: ds.Kind, NumProfiles: ds.NumProfiles(), Split: ds.Split()}
	for k, a := range index {
		b := blocking.Block{Key: k, P1: a.p1, Entropy: a.entropy}
		if ds.Kind == model.CleanClean {
			b.P2 = a.p2
			if b.P2 == nil {
				b.P2 = []int32{}
			}
		}
		if b.Comparisons() == 0 {
			continue
		}
		c.Blocks = append(c.Blocks, b)
	}
	sort.Slice(c.Blocks, func(i, j int) bool { return c.Blocks[i].Key < c.Blocks[j].Key })
	return c
}

// refPurge drops every block larger than maxRatio of the profiles.
func refPurge(c *refCollection, maxRatio float64) *refCollection {
	if maxRatio <= 0 {
		maxRatio = 0.5
	}
	limit := maxRatio * float64(c.NumProfiles)
	out := &refCollection{Kind: c.Kind, NumProfiles: c.NumProfiles, Split: c.Split}
	for _, b := range c.Blocks {
		if float64(b.Size()) <= limit {
			out.Blocks = append(out.Blocks, b)
		}
	}
	return out
}

// refBlocksOfProfiles is the per-profile [][]int32 inverse.
func refBlocksOfProfiles(c *refCollection) [][]int32 {
	out := make([][]int32, c.NumProfiles)
	for i := range c.Blocks {
		b := &c.Blocks[i]
		for _, p := range b.P1 {
			out[p] = append(out[p], int32(i))
		}
		for _, p := range b.P2 {
			out[p] = append(out[p], int32(i))
		}
	}
	return out
}

// refFilter stable-sorts the blocks by cardinality, sorts every profile's
// list by that rank and records kept memberships in a hash set.
func refFilter(c *refCollection, keepRatio float64) *refCollection {
	if keepRatio <= 0 || keepRatio > 1 {
		keepRatio = 0.8
	}
	order := make([]int32, len(c.Blocks))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := c.Blocks[order[i]].Comparisons(), c.Blocks[order[j]].Comparisons()
		if ci != cj {
			return ci < cj
		}
		return order[i] < order[j]
	})
	rank := make([]int32, len(c.Blocks))
	for r, id := range order {
		rank[id] = int32(r)
	}
	keep := make(map[int64]struct{})
	for p, blocks := range refBlocksOfProfiles(c) {
		if len(blocks) == 0 {
			continue
		}
		sort.Slice(blocks, func(i, j int) bool { return rank[blocks[i]] < rank[blocks[j]] })
		k := int(math.Ceil(keepRatio * float64(len(blocks))))
		k = min(max(k, 1), len(blocks))
		for _, bid := range blocks[:k] {
			keep[int64(bid)<<32|int64(p)] = struct{}{}
		}
	}
	out := &refCollection{Kind: c.Kind, NumProfiles: c.NumProfiles, Split: c.Split}
	for i := range c.Blocks {
		b := &c.Blocks[i]
		nb := blocking.Block{Key: b.Key, Entropy: b.Entropy}
		for _, p := range b.P1 {
			if _, ok := keep[int64(i)<<32|int64(p)]; ok {
				nb.P1 = append(nb.P1, p)
			}
		}
		if b.P2 != nil {
			nb.P2 = []int32{}
			for _, p := range b.P2 {
				if _, ok := keep[int64(i)<<32|int64(p)]; ok {
					nb.P2 = append(nb.P2, p)
				}
			}
		}
		if nb.Comparisons() > 0 {
			out.Blocks = append(out.Blocks, nb)
		}
	}
	return out
}

// refAppender grows a refCollection in place through a key -> block map
// and pending keys.
type refAppender struct {
	c       *refCollection
	byKey   map[string]int32
	pending map[string][]int32
	entropy map[string]float64
}

func newRefAppender(c *refCollection) *refAppender {
	a := &refAppender{c: c, byKey: make(map[string]int32), pending: make(map[string][]int32),
		entropy: make(map[string]float64)}
	for i := range c.Blocks {
		a.byKey[c.Blocks[i].Key] = int32(i)
	}
	return a
}

func (a *refAppender) Append(keys []blocking.KeyEntropy) int32 {
	c := a.c
	id := int32(c.NumProfiles)
	ks := append([]blocking.KeyEntropy(nil), keys...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Key < ks[j].Key })
	for i, ke := range ks {
		if i > 0 && ke.Key == ks[i-1].Key {
			continue
		}
		if bi, ok := a.byKey[ke.Key]; ok {
			b := &c.Blocks[bi]
			if c.Kind == model.CleanClean {
				b.P2 = append(b.P2, id)
			} else {
				b.P1 = append(b.P1, id)
			}
			continue
		}
		if c.Kind == model.CleanClean {
			continue
		}
		if _, ok := a.pending[ke.Key]; !ok {
			a.entropy[ke.Key] = ke.Entropy
		}
		a.pending[ke.Key] = append(a.pending[ke.Key], id)
		nb := blocking.Block{Key: ke.Key, Entropy: a.entropy[ke.Key], P1: a.pending[ke.Key]}
		if nb.Comparisons() == 0 {
			continue
		}
		a.byKey[ke.Key] = int32(len(c.Blocks))
		c.Blocks = append(c.Blocks, nb)
		delete(a.pending, ke.Key)
	}
	c.NumProfiles++
	return id
}
