package lsh

import "sort"

// CandidatePair is an unordered pair of item ids that collided in at
// least one band, stored with A < B.
type CandidatePair struct {
	A, B int32
}

// Index is a banded LSH index: signatures are split into Bands bands of
// Rows rows each; items whose signature agrees on every row of at least
// one band become candidate pairs. Signatures added to an index must come
// from the same Signer and have length >= Bands*Rows (extra positions are
// ignored).
type Index struct {
	Rows  int
	Bands int

	// buckets[band] maps a band hash to the item ids in that bucket.
	buckets []map[uint64][]int32
	n       int
}

// NewIndex returns an empty banded index. It panics on non-positive
// parameters.
func NewIndex(rows, bands int) *Index {
	if rows <= 0 || bands <= 0 {
		panic("lsh: NewIndex needs rows > 0 and bands > 0")
	}
	bk := make([]map[uint64][]int32, bands)
	for i := range bk {
		bk[i] = make(map[uint64][]int32)
	}
	return &Index{Rows: rows, Bands: bands, buckets: bk}
}

// bandHash combines the rows of one band into a single bucket key.
func bandHash(rows []uint64) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, r := range rows {
		h ^= r
		h *= 1099511628211
		h = mix64(h)
	}
	return h
}

// Add inserts an item with its signature. It panics if the signature is
// shorter than Rows*Bands.
func (ix *Index) Add(id int32, sig []uint64) {
	need := ix.Rows * ix.Bands
	if len(sig) < need {
		panic("lsh: signature shorter than rows*bands")
	}
	for b := 0; b < ix.Bands; b++ {
		key := bandHash(sig[b*ix.Rows : (b+1)*ix.Rows])
		ix.buckets[b][key] = append(ix.buckets[b][key], id)
	}
	ix.n++
}

// Candidates returns the deduplicated candidate pairs: items sharing a
// bucket in at least one band. If crossOnly is non-nil, only pairs for
// which crossOnly(a, b) is true are returned (used to keep only
// cross-collection attribute pairs in clean-clean ER).
func (ix *Index) Candidates(crossOnly func(a, b int32) bool) []CandidatePair {
	seen := make(map[uint64]struct{})
	var out []CandidatePair
	for _, band := range ix.buckets {
		for _, bucket := range band {
			if len(bucket) < 2 {
				continue
			}
			for i := 0; i < len(bucket); i++ {
				for j := i + 1; j < len(bucket); j++ {
					a, b := bucket[i], bucket[j]
					if a == b {
						continue
					}
					if a > b {
						a, b = b, a
					}
					if crossOnly != nil && !crossOnly(a, b) {
						continue
					}
					key := uint64(uint32(a))<<32 | uint64(uint32(b))
					if _, dup := seen[key]; dup {
						continue
					}
					seen[key] = struct{}{}
					out = append(out, CandidatePair{A: a, B: b})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
