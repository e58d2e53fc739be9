package blocking

import (
	"fmt"
	"sort"

	"blast/internal/lsh"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/text"
)

// Canopy implements Canopy Clustering (McCallum, Nigam, Ungar; KDD 2000
// — cited as [14] by the BLAST paper): profiles are grouped into
// overlapping canopies using a cheap similarity. Starting from a random
// unprocessed profile, every profile with Jaccard similarity >= loose
// joins the canopy, and those with similarity >= tight are removed from
// the candidate pool. Each canopy becomes a block, so the result plugs
// into the same meta-blocking pipeline as Token Blocking.
//
// The cheap similarity is token-set Jaccard computed through an inverted
// index: only profiles sharing at least one token with the seed are
// scored, which is the "cheap distance" the method calls for.
//
// It requires 0 < tight and loose <= tight is rejected (loose must be
// the smaller threshold, admitting more profiles than tight removes).
func Canopy(ds *model.Dataset, tr text.Transform, loose, tight float64, seed uint64) (*Collection, error) {
	if tr == nil {
		tr = text.NewTokenizer()
	}
	if loose <= 0 || tight <= 0 || loose > tight || tight > 1 {
		return nil, fmt.Errorf("blocking: canopy needs 0 < loose <= tight <= 1, got %v/%v", loose, tight)
	}

	n := ds.NumProfiles()
	tokens := make([][]uint64, n) // sorted unique token hashes per profile
	inverted := make(map[uint64][]int32)
	for i := 0; i < n; i++ {
		set := make(map[uint64]struct{})
		for _, pair := range ds.Profile(i).Pairs {
			for _, tok := range tr.Terms(pair.Value) {
				set[lsh.TokenHash(tok)] = struct{}{}
			}
		}
		ts := make([]uint64, 0, len(set))
		for h := range set {
			ts = append(ts, h)
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		tokens[i] = ts
		for _, h := range ts {
			inverted[h] = append(inverted[h], int32(i))
		}
	}

	rng := stats.NewRNG(seed)
	order := rng.Perm(n)
	inPool := make([]bool, n)
	for i := range inPool {
		inPool[i] = true
	}

	var blocks []Block
	overlap := make(map[int32]int, 64)
	blockID := 0
	for _, seedIdx := range order {
		if !inPool[seedIdx] {
			continue
		}
		st := tokens[seedIdx]
		if len(st) == 0 {
			inPool[seedIdx] = false
			continue
		}
		// Count token overlaps with pool members via the inverted index.
		clear(overlap)
		for _, h := range st {
			for _, other := range inverted[h] {
				if inPool[other] {
					overlap[other]++
				}
			}
		}
		var members []int32
		for other, inter := range overlap {
			union := len(st) + len(tokens[other]) - inter
			sim := float64(inter) / float64(union)
			if sim >= loose {
				members = append(members, other)
				if sim >= tight {
					inPool[other] = false
				}
			}
		}
		inPool[seedIdx] = false
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		b := Block{Key: fmt.Sprintf("canopy-%04d", blockID)}
		blockID++
		if ds.Kind == model.CleanClean {
			b.P2 = []int32{}
			for _, m := range members {
				if int(m) < ds.Split() {
					b.P1 = append(b.P1, m)
				} else {
					b.P2 = append(b.P2, m)
				}
			}
		} else {
			b.P1 = members
		}
		if b.Comparisons() == 0 {
			continue
		}
		b.Entropy = 1
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Key < blocks[j].Key })
	return FromBlocks(ds.Kind, n, ds.Split(), blocks), nil
}

// QGramBlocking builds blocks with overlapping character q-grams as
// blocking keys (Gravano et al., VLDB 2001 — the [9]/[7] alternative the
// paper mentions in Section 3.2). More robust to typos than Token
// Blocking, at the cost of many more blocks.
func QGramBlocking(ds *model.Dataset, q int) *Collection {
	return Build(ds, text.NewQGram(q), TokenKey)
}

// SuffixBlocking builds blocks keyed by token suffixes of length >=
// minLength (Suffix Array blocking, de Vries et al.). Combine with
// Purge to drop the huge short-suffix blocks, as the original method's
// maximum-block-size parameter does.
func SuffixBlocking(ds *model.Dataset, minLength int) *Collection {
	return Build(ds, text.NewSuffix(minLength), TokenKey)
}
