// Package attr implements BLAST's loose schema information extraction
// (Section 3.1): attribute profiles, Loose attribute-Match Induction
// (LMI, Algorithm 1 of the paper), the Attribute Clustering baseline (AC,
// Papadakis et al. TKDE'13), the optional LSH-based candidate generation
// step, and the entropy extraction that turns an attribute partitioning
// into the aggregate-entropy weights used by the meta-blocking phase.
//
// Induction is a co-occurrence join, computed the ScanCount way: instead
// of comparing every pair of attribute token sets, a token -> attribute
// posting index is walked once per attribute, filling one dense row of
// shared-token counts (or TF-IDF dot products) from which the row's
// maximum similarity and its candidates come out together. Rows are
// independent and run over Config.Workers goroutines; similarities are
// bit-identical to a merge of the two sorted token lists, which is what
// the LSH path (a few proposed pairs) and the test oracle still do.
package attr

import (
	"slices"
	"sort"

	"blast/internal/lsh"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/text"
)

// Ref identifies an attribute within a dataset: the source collection
// index (0 for E1, 1 for E2) and the attribute name.
type Ref struct {
	Source int
	Name   string
}

// Profile is the profile of an attribute (Section 2.1): the set of terms
// its values assume under the value transformation function, represented
// with binary presence. Tokens are stored as sorted unique 64-bit hashes,
// which makes Jaccard a linear merge, fixes the order in which the row
// kernel sums TF-IDF products, and feeds MinHash directly.
type Profile struct {
	Ref Ref
	// Tokens is the sorted, deduplicated set of token hashes of all
	// values of the attribute.
	Tokens []uint64
	// Freqs holds the occurrence count of each token, aligned with
	// Tokens (used by the TF-IDF representation).
	Freqs []int
	// Entropy is the Shannon entropy (bits) of the attribute's token
	// distribution — the information content used by BLAST to weight
	// blocking keys (Definition 3).
	Entropy float64
	// Count is the number of token occurrences observed (pre-dedup).
	Count int
}

// ExtractProfiles computes the attribute profiles and entropies of every
// attribute of the dataset. For clean-clean ER attributes of E1 and E2
// are kept distinct even when names coincide. Results are sorted by
// (source, name) for determinism.
func ExtractProfiles(ds *model.Dataset, tr text.Transform) []Profile {
	// Every occurrence's hash is appended to its attribute's list; one
	// sort per attribute then yields the token set, the frequencies (run
	// lengths) and the count without a map.
	occurrences := make(map[Ref][]uint64)
	scan := func(source int, c *model.Collection) {
		for i := range c.Profiles {
			for _, pair := range c.Profiles[i].Pairs {
				ref := Ref{Source: source, Name: pair.Name}
				occ := occurrences[ref]
				for _, tok := range tr.Terms(pair.Value) {
					occ = append(occ, lsh.TokenHash(tok))
				}
				occurrences[ref] = occ
			}
		}
	}
	scan(0, ds.E1)
	if ds.Kind == model.CleanClean {
		scan(1, ds.E2)
	}

	out := make([]Profile, 0, len(occurrences))
	for ref, occ := range occurrences {
		slices.Sort(occ)
		distinct := 0
		for k, t := range occ {
			if k == 0 || t != occ[k-1] {
				distinct++
			}
		}
		toks := make([]uint64, 0, distinct)
		freqs := make([]int, 0, distinct)
		for k, t := range occ {
			if k == 0 || t != occ[k-1] {
				toks = append(toks, t)
				freqs = append(freqs, 0)
			}
			freqs[len(freqs)-1]++
		}
		out = append(out, Profile{
			Ref:    ref,
			Tokens: toks,
			Freqs:  freqs,
			// Entropy over the token-hash-ordered freqs: the summation
			// order must be a function of the data alone for two runs
			// over equal collections to agree bitwise.
			Entropy: stats.Entropy(freqs),
			Count:   len(occ),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ref.Source != out[j].Ref.Source {
			return out[i].Ref.Source < out[j].Ref.Source
		}
		return out[i].Ref.Name < out[j].Ref.Name
	})
	return out
}

// Jaccard returns the Jaccard coefficient of two sorted unique hash sets:
// |A ∩ B| / |A ∪ B|. (Footnote 5 of the paper expresses the same quantity
// over binary vectors.) Empty-vs-anything is 0.
func Jaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
