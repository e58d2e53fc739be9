package blocking

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"strings"

	"blast/internal/model"
	"blast/internal/par"
	"blast/internal/text"
)

// KeyFunc maps a token occurrence to a blocking key. source is the index
// of the collection the profile belongs to (0 for E1, 1 for E2), attr the
// attribute name the token was extracted from. It returns the key, the
// entropy h(b) to associate with the key's blocks, and whether the token
// should be indexed at all.
//
// A KeyFunc must be pure — its result a function of its arguments only —
// and safe for concurrent use: BuildCtx calls it from several goroutines
// at once, each keying its own range of profiles.
//
// Three key functions cover the paper's blocking techniques:
//
//   - Token Blocking: key = token (TokenKey);
//   - loosely schema-aware Token Blocking: key = token qualified by the
//     attribute cluster id, entropy = cluster aggregate entropy
//     (attr.Partitioning.KeyFunc);
//   - Standard Blocking: key = token qualified by the aligned schema
//     attribute (SchemaKey).
type KeyFunc func(source int, attr, token string) (key string, entropy float64, ok bool)

// TokenKey is the schema-agnostic Token Blocking key function: every token
// is its own key, regardless of the attribute it appears in.
func TokenKey(source int, attr, token string) (string, float64, bool) {
	return token, 1, true
}

// SchemaKey returns a KeyFunc implementing Standard Blocking over a manual
// schema alignment: tokens are qualified by the aligned attribute id of
// the attribute they appear in, so only tokens from aligned attributes
// co-occur in blocks. align maps (source, attribute name) to an alignment
// id; attributes missing from the map are not indexed.
func SchemaKey(align map[[2]string]string) KeyFunc {
	return func(source int, attr, token string) (string, float64, bool) {
		src := "0"
		if source == 1 {
			src = "1"
		}
		id, ok := align[[2]string{src, attr}]
		if !ok {
			return "", 0, false
		}
		return token + "\x1f" + id, 1, true
	}
}

// Build constructs a block collection from the dataset by applying the
// value transformation tr to every attribute value and indexing the
// resulting terms with key. Each profile enters a block at most once
// (re-occurrences of a key within a profile are deduplicated). Blocks that
// entail no comparison — fewer than two profiles, or a one-sided block in
// clean-clean ER — are dropped. Blocks are returned sorted by key; a
// block's entropy is the one key returned for the key's first occurrence.
func Build(ds *model.Dataset, tr text.Transform, key KeyFunc) *Collection {
	c, _ := BuildCtx(context.Background(), ds, tr, key)
	return c
}

// buildCancelCheckEvery is the profile-chunk granularity at which every
// worker of a build polls for cancellation: fine enough that a cancelled
// build stops within a few hundred profiles, coarse enough that the check
// never shows up in a profile.
const buildCancelCheckEvery = 512

// BuildCtx is Build with cooperative cancellation, on one worker per CPU:
// each worker checks ctx every few hundred profiles, and the build
// returns ctx.Err() — after every worker has stopped — as soon as one
// observes cancellation, discarding the partial collection.
func BuildCtx(ctx context.Context, ds *model.Dataset, tr text.Transform, key KeyFunc) (*Collection, error) {
	return build(ctx, ds, tr, key, 0, math.Inf(1))
}

// BuildPurgedCtx is BuildCtx followed by Purge(c, purgeRatio), fused: a
// key with more members than the purge admits is dropped from the counts
// before its block is laid out. It runs on `workers` goroutines (<= 0: one
// per CPU); the collection is identical at every count.
func BuildPurgedCtx(ctx context.Context, ds *model.Dataset, tr text.Transform, key KeyFunc, workers int, purgeRatio float64) (*Collection, error) {
	return build(ctx, ds, tr, key, workers, purgeLimit(ds.NumProfiles(), purgeRatio))
}

// build is one pass over the profiles, sorted once. Profiles are cut into
// contiguous ranges, one per worker; each worker keys its range, interns
// the keys into ids of its own and records every profile's ascending
// distinct key ids. The distinct keys of all workers are then sorted by
// string once — block order is key order — and a key's counts decide
// whether it becomes a block. Finally every worker writes its profiles
// into the members array at cursors that place its ids after those of
// lower ranges, so every block comes out ascending, E1 before E2, at any
// worker count.
func build(ctx context.Context, ds *model.Dataset, tr text.Transform, key KeyFunc, workers int, limit float64) (*Collection, error) {
	n := ds.NumProfiles()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	parts := make([]buildPart, workers)
	for w := range parts {
		parts[w].lo, parts[w].hi = n*w/workers, n*(w+1)/workers
	}
	if err := par.Do(workers, func(w int) error { return parts[w].index(ctx, ds, tr, key) }); err != nil {
		return nil, err
	}

	var refs []keyRef
	for w := range parts {
		for id, k := range parts[w].keys {
			refs = append(refs, keyRef{key: k, part: int32(w), id: int32(id)})
		}
	}
	// Ties order by part, so a key's first ref is its first occurrence.
	slices.SortFunc(refs, func(a, b keyRef) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.part, b.part)
	})
	// A key becomes a block iff it entails a comparison and has at most
	// limit members; each part's count of it becomes the part's write
	// cursor into the block (-1: no block).
	type kept struct {
		key    string
		h      float64
		n1, n2 int
	}
	var blocks []kept
	t, k := 0, 0
	for i, j := 0, 0; i < len(refs); i = j {
		n1, size := 0, 0
		for j = i; j < len(refs) && refs[j].key == refs[i].key; j++ {
			n1 += int(parts[refs[j].part].n1[refs[j].id])
			size += int(parts[refs[j].part].n[refs[j].id])
		}
		keep := comparisons(ds.Kind, n1, size-n1) > 0 && float64(size) <= limit
		for _, r := range refs[i:j] {
			cnt := &parts[r.part].n[r.id]
			if !keep {
				*cnt = -1
				continue
			}
			*cnt, t = int32(t), t+int(*cnt)
		}
		if first := refs[i]; keep {
			blocks = append(blocks, kept{first.key, parts[first.part].ent[first.id], n1, size - n1})
			k += len(first.key)
		}
	}
	l := newLayout(ds.Kind, n, ds.Split(), len(blocks), t, k)
	for _, b := range blocks {
		l.add(b.key, b.h, b.n1, b.n2)
	}
	c := l.done()
	if err := par.Do(workers, func(w int) error { return parts[w].fill(ctx, c.members) }); err != nil {
		return nil, err
	}
	return c, nil
}

// keyRef is one worker's key id of a distinct key.
type keyRef struct {
	key      string
	part, id int32
}

// buildPart is one worker's range [lo, hi) of global profile ids: the
// ascending distinct key ids of every profile (those of profile lo+i end
// at ends[i]), and the worker's key dictionary — key, entropy of its first
// occurrence, memberships n and E1 memberships n1 per id.
type buildPart struct {
	lo, hi    int
	ids, ends []int32
	keys      []string
	ent       []float64
	n, n1     []int32
}

// termAppender is a transform that can append a value's terms to a
// reused slice (text.Tokenizer) instead of allocating one per value.
type termAppender interface {
	AppendTerms(dst []string, value string) []string
}

// index tokenises and keys the part's profiles.
func (bp *buildPart) index(ctx context.Context, ds *model.Dataset, tr text.Transform, key KeyFunc) error {
	dict := make(map[string]int32)
	appender, _ := tr.(termAppender)
	var terms []string
	for g := bp.lo; g < bp.hi; g++ {
		if (g-bp.lo)%buildCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		source, first := ds.SourceOf(g), len(bp.ids)
		for _, pair := range ds.Profile(g).Pairs {
			if appender != nil {
				terms = appender.AppendTerms(terms[:0], pair.Value)
			} else {
				terms = tr.Terms(pair.Value)
			}
			for _, tok := range terms {
				k, h, ok := key(source, pair.Name, tok)
				if !ok {
					continue
				}
				id, seen := dict[k]
				if !seen {
					id = int32(len(bp.keys))
					dict[k] = id
					bp.keys, bp.ent = append(bp.keys, k), append(bp.ent, h)
					bp.n, bp.n1 = append(bp.n, 0), append(bp.n1, 0)
				}
				bp.ids = append(bp.ids, id)
			}
		}
		own := bp.ids[first:]
		slices.Sort(own)
		own = slices.Compact(own)
		bp.ids = bp.ids[:first+len(own)]
		bp.ends = append(bp.ends, int32(len(bp.ids)))
		for _, id := range own {
			bp.n[id]++
			if source == 0 {
				bp.n1[id]++
			}
		}
	}
	return nil
}

// fill writes the part's profiles at their keys' cursors.
func (bp *buildPart) fill(ctx context.Context, members []int32) error {
	from := int32(0)
	for i, end := range bp.ends {
		if i%buildCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, id := range bp.ids[from:end] {
			if at := bp.n[id]; at >= 0 {
				members[at] = int32(bp.lo + i)
				bp.n[id]++
			}
		}
		from = end
	}
	return nil
}

// TokenBlocking builds the paper's baseline: schema-agnostic Token
// Blocking with the default tokenizer.
func TokenBlocking(ds *model.Dataset) *Collection {
	return Build(ds, text.NewTokenizer(), TokenKey)
}
