package blocking

import (
	"cmp"
	"math"
	"slices"
)

// purgeLimit is the largest block size Block Purging keeps: maxRatio
// (default 0.5) of the dataset's profiles.
func purgeLimit(numProfiles int, maxRatio float64) float64 {
	if maxRatio <= 0 {
		maxRatio = 0.5
	}
	return maxRatio * float64(numProfiles)
}

// Purge implements Block Purging as described in Section 4.1 of the BLAST
// paper: it discards every block that contains more than maxRatio of the
// entity profiles of the dataset (default 0.5 — "more than half"),
// removing the blocks that correspond to highly frequent, stop-word-like
// blocking keys. It returns a new collection; the input is not modified.
// Like Filter it cleans a built collection, not one carrying appends.
func Purge(c *Collection, maxRatio float64) *Collection {
	limit := purgeLimit(c.NumProfiles, maxRatio)
	keep := make([]uint64, (len(c.members)+63)/64)
	for i := range c.mid {
		if float64(c.start[i+1]-c.start[i]) <= limit {
			for j := c.start[i]; j < c.start[i+1]; j++ {
				keep[j>>6] |= 1 << (j & 63)
			}
		}
	}
	return c.compact(keep)
}

// Filter implements Block Filtering (Papadakis et al., EDBT'16; used by
// BLAST with ratio 0.8): each profile keeps only the keepRatio most
// important of its blocks — importance being inverse block cardinality,
// i.e. smaller blocks are more significant — and is removed from the
// rest. Blocks left with no valid comparison are dropped. It returns a
// new collection; the input is not modified.
//
// Blocks are ranked once by (||b||, index); a profile in n blocks keeps
// those whose rank is among its ceil(keepRatio*n) smallest, a cut read
// off its list in the profile → blocks Inverse. Kept memberships are
// marked in a bitmap and the collection is compacted once.
func Filter(c *Collection, keepRatio float64) *Collection {
	if keepRatio <= 0 || keepRatio > 1 {
		keepRatio = 0.8
	}
	nb := c.Len()
	cost := make([]int64, nb)
	order := make([]int32, nb)
	for i := range order {
		cost[i], order[i] = c.Comparisons(i), int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if d := cmp.Compare(cost[a], cost[b]); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	})
	rank := make([]int32, nb)
	for r, b := range order {
		rank[b] = int32(r)
	}

	inv := NewInverse(c)
	cut := make([]int32, c.NumProfiles) // the largest rank profile p keeps
	var ranks []int32
	for p := range cut {
		blocks := inv.Of(int32(p))
		k := min(max(int(math.Ceil(keepRatio*float64(len(blocks)))), 1), len(blocks))
		ranks = ranks[:0]
		for _, b := range blocks {
			ranks = append(ranks, rank[b])
		}
		slices.Sort(ranks)
		if k > 0 {
			cut[p] = ranks[k-1]
		}
	}

	keep := make([]uint64, (len(c.members)+63)/64)
	for b := range c.mid {
		for j := c.start[b]; j < c.start[b+1]; j++ {
			if rank[b] <= cut[c.members[j]] {
				keep[j>>6] |= 1 << (j & 63)
			}
		}
	}
	return c.compact(keep)
}

// compact lays out the blocks of c restricted to the memberships keep
// marks (bit j for c.members[j]), dropping every block left without a
// comparison, into exactly-sized arrays. Cleaning reads the base only, so
// a collection carrying appends is refused.
func (c *Collection) compact(keep []uint64) *Collection {
	if c.tail != nil {
		panic("blocking: cleaning a collection that carries appends")
	}
	kept := func(lo, hi int32) (n int) {
		for j := lo; j < hi; j++ {
			n += int(keep[j>>6] >> (j & 63) & 1)
		}
		return n
	}
	nb := len(c.mid)
	survives := make([]bool, nb)
	m, t, k := 0, 0, 0
	for i := 0; i < nb; i++ {
		n1, n2 := kept(c.start[i], c.mid[i]), kept(c.mid[i], c.start[i+1])
		if survives[i] = comparisons(c.Kind, n1, n2) > 0; survives[i] {
			m, t, k = m+1, t+n1+n2, k+int(c.keyOff[i+1]-c.keyOff[i])
		}
	}
	l := newLayout(c.Kind, c.NumProfiles, c.Split, m, t, k)
	for i := 0; i < nb; i++ {
		if !survives[i] {
			continue
		}
		at := l.add(c.Key(i), c.entropy[i], kept(c.start[i], c.mid[i]), kept(c.mid[i], c.start[i+1]))
		for j := c.start[i]; j < c.start[i+1]; j++ {
			if keep[j>>6]>>(j&63)&1 != 0 {
				l.c.members[at] = c.members[j]
				at++
			}
		}
	}
	return l.done()
}

// CleanWorkflow applies the paper's preprocessing pipeline to a freshly
// built block collection: Block Purging (ratio purgeRatio, default 0.5)
// followed by Block Filtering (ratio filterRatio, default 0.8).
// Pipeline.Block runs the same workflow with the purge fused into the
// build (BuildPurgedCtx).
func CleanWorkflow(c *Collection, purgeRatio, filterRatio float64) *Collection {
	return Filter(Purge(c, purgeRatio), filterRatio)
}
