package blocking

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"blast/internal/model"
	"blast/internal/text"
)

// SortedNeighborhood implements the Sorted Neighborhood method
// (Hernández & Stolfo, SIGMOD 1995; surveyed by Christen [5], one of the
// classic schema-based techniques the BLAST paper positions against):
// profiles are sorted by a blocking key and a window of size w slides
// over the sorted order; each window position becomes a block, so
// profiles within w-1 positions of each other are compared.
//
// This schema-agnostic adaptation derives the sort key from the
// profile's lexicographically smallest tokens (keyTokens of them,
// concatenated), which needs no schema knowledge.
func SortedNeighborhood(ds *model.Dataset, tr text.Transform, window, keyTokens int) (*Collection, error) {
	if window < 2 {
		return nil, fmt.Errorf("blocking: sorted neighborhood needs window >= 2, got %d", window)
	}
	if keyTokens < 1 {
		keyTokens = 2
	}
	if tr == nil {
		tr = text.NewTokenizer()
	}
	return sortedNeighborhoodByKey(ds, window, func(p *model.Profile) string {
		var toks []string
		for _, pair := range p.Pairs {
			toks = append(toks, tr.Terms(pair.Value)...)
		}
		if len(toks) == 0 {
			return ""
		}
		sort.Strings(toks)
		if len(toks) > keyTokens {
			toks = toks[:keyTokens]
		}
		return strings.Join(toks, "\x1f")
	})
}

func sortedNeighborhoodByKey(ds *model.Dataset, window int, key func(p *model.Profile) string) (*Collection, error) {
	n := ds.NumProfiles()
	type entry struct {
		id  int32
		key string
	}
	entries := make([]entry, 0, n)
	for i := 0; i < n; i++ {
		k := key(ds.Profile(i))
		if k == "" {
			continue // profiles without a key cannot be sorted meaningfully
		}
		entries = append(entries, entry{id: int32(i), key: k})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].key != entries[b].key {
			return entries[a].key < entries[b].key
		}
		return entries[a].id < entries[b].id
	})

	var blocks []Block
	for start := 0; start+window <= len(entries); start++ {
		members := entries[start : start+window]
		ids := make([]int32, 0, window)
		for _, e := range members {
			ids = append(ids, e.id)
		}
		slices.Sort(ids)
		b := Block{Key: fmt.Sprintf("sn-%06d", start), P1: ids, Entropy: 1}
		if ds.Kind == model.CleanClean {
			cut, _ := slices.BinarySearch(ids, int32(ds.Split()))
			b.P1, b.P2 = ids[:cut], ids[cut:]
		}
		if b.Comparisons() == 0 {
			continue
		}
		blocks = append(blocks, b)
	}
	return FromBlocks(ds.Kind, n, ds.Split(), blocks), nil
}
