package attr

import (
	"context"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"blast/internal/lsh"
	"blast/internal/model"
)

// Config controls attribute-match induction.
type Config struct {
	// Alpha is the candidate threshold factor of LMI (Algorithm 1,
	// lines 9-13): a_j is a candidate match of a_i when
	// sim(a_i, a_j) >= Alpha * maxSim(a_i). Default 0.9.
	Alpha float64
	// Glue enables the glue cluster gathering unclustered attributes.
	// The paper enables it by default; Figure 10 disables it to study
	// the LSH threshold.
	Glue bool
	// LSH, when non-nil, scores only the attribute pairs that banded
	// MinHash proposes (Section 3.1.2) instead of every pair that
	// shares a token.
	LSH *LSHConfig
	// Representation selects binary/Jaccard (default) or TF-IDF/cosine
	// attribute comparison (Section 2.1's two compatible combinations).
	Representation Representation
	// Workers is the number of goroutines the exhaustive row kernel
	// runs on: 0 uses one per CPU, 1 is serial. Attribute rows are
	// independent, so the partitioning is identical at every count.
	Workers int
}

// LSHConfig parameterizes the optional MinHash/banding step. The implied
// Jaccard threshold is (1/Bands)^(1/Rows) — see lsh.Threshold.
type LSHConfig struct {
	Rows  int    // rows per band (r)
	Bands int    // number of bands (b)
	Seed  uint64 // hash seed (deterministic)
}

// DefaultConfig returns the paper's settings: alpha = 0.9, glue cluster
// enabled, exhaustive scoring.
func DefaultConfig() Config {
	return Config{Alpha: 0.9, Glue: true}
}

const (
	// inductionCancelCheckEvery bounds how many scored LSH pairs pass
	// between two cancellation polls.
	inductionCancelCheckEvery = 1024
	// rowChunk is the number of consecutive attribute rows a worker
	// claims at a time; ctx is polled once per claim.
	rowChunk = 64
	// postingPollBudget is the number of posting entries a worker walks
	// between two polls inside a row, so an attribute whose tokens have
	// attribute-space-wide posting lists cannot delay cancellation.
	postingPollBudget = 1 << 20
)

// rowPick consumes one attribute's scored row: every comparable partner
// with a positive similarity, in ascending partner order. It is called
// at most once per attribute, concurrently for distinct attributes, and
// must not retain the slices.
type rowPick func(i int, partners []int32, sims []float64)

// tokenPostings is the token -> attribute inverted index the row kernel
// walks. Tokens get dense ids; for clean-clean ER a token's postings are
// split by side (E1 is Source 0, E2 anything else), so a row only ever
// visits attributes it may be compared with.
type tokenPostings struct {
	stride int       // sides per token: 1 for dirty ER, 2 for clean-clean
	side   []int     // the attribute's side (always 0 for dirty ER)
	tokens [][]int32 // the attribute's token ids, aligned with Profile.Tokens
	// Segment id*stride+side spans attrs[start[seg]:start[seg+1]]: the
	// attributes of that side containing token id, ascending. wts holds
	// the token's TF-IDF weight in each of them (nil when binary).
	start []int
	attrs []int32
	wts   []float64
}

func buildPostings(profiles []Profile, kind model.Kind, view *weightedView) *tokenPostings {
	px := &tokenPostings{stride: 1, side: make([]int, len(profiles)), tokens: make([][]int32, len(profiles))}
	if kind == model.CleanClean {
		px.stride = 2
	}
	ids := make(map[uint64]int32)
	total := 0
	for i := range profiles {
		if kind == model.CleanClean && profiles[i].Ref.Source != 0 {
			px.side[i] = 1
		}
		px.tokens[i] = make([]int32, len(profiles[i].Tokens))
		for k, t := range profiles[i].Tokens {
			id, ok := ids[t]
			if !ok {
				id = int32(len(ids))
				ids[t] = id
			}
			px.tokens[i][k] = id
		}
		total += len(profiles[i].Tokens)
	}

	// Counting sort of the (token, side, attribute) entries; attributes
	// are visited in index order, so every segment comes out ascending.
	px.start = make([]int, len(ids)*px.stride+1)
	for i, toks := range px.tokens {
		for _, id := range toks {
			px.start[int(id)*px.stride+px.side[i]+1]++
		}
	}
	for seg := 1; seg < len(px.start); seg++ {
		px.start[seg] += px.start[seg-1]
	}
	px.attrs = make([]int32, total)
	if view != nil {
		px.wts = make([]float64, total)
	}
	next := slices.Clone(px.start)
	for i, toks := range px.tokens {
		for k, id := range toks {
			seg := int(id)*px.stride + px.side[i]
			px.attrs[next[seg]] = int32(i)
			if view != nil {
				px.wts[next[seg]] = view.weights[i][k]
			}
			next[seg]++
		}
	}
	return px
}

// rowScratch is one worker's dense accumulator over the attribute
// space, cleared in O(partners) as every row is read out. met has one
// bit per attribute; reading its set bits yields the row's partners in
// ascending order with no per-entry branch in the posting walk.
type rowScratch struct {
	shared   []int32   // |A_i ∩ A_j| per partner j
	dot      []float64 // TF-IDF dot product per partner j
	met      []uint64
	partners []int32
	sims     []float64
	budget   int
}

// scoreRow fills sc.partners/sc.sims with attribute i's complete scored
// row by walking the postings of i's tokens in ascending token-hash
// order: shared[j] ends at the size of the token intersection, and
// dot[j] accumulates the products of the shared tokens' weights in the
// order a merge of the two sorted token lists would visit them, so both
// similarities carry the bits of Jaccard and weightedView.cosine. It
// reports false when ctx was cancelled mid-row.
func (px *tokenPostings) scoreRow(ctx context.Context, profiles []Profile, view *weightedView, i int, sc *rowScratch) bool {
	for k, id := range px.tokens[i] {
		seg := int(id)*px.stride + px.stride - 1 - px.side[i] // the other side's
		lo, hi := px.start[seg], px.start[seg+1]
		for _, j := range px.attrs[lo:hi] {
			sc.shared[j]++
			sc.met[j>>6] |= 1 << (j & 63)
		}
		if view != nil {
			wk := view.weights[i][k]
			for p, j := range px.attrs[lo:hi] {
				sc.dot[j] += wk * px.wts[lo+p]
			}
		}
		if sc.budget -= hi - lo; sc.budget <= 0 {
			sc.budget = postingPollBudget
			if ctx.Err() != nil {
				return false
			}
		}
	}

	own := len(profiles[i].Tokens)
	sc.partners, sc.sims = sc.partners[:0], sc.sims[:0]
	for w, word := range sc.met {
		sc.met[w] = 0
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			inter := int(sc.shared[j])
			sim := float64(inter) / float64(own+len(profiles[j].Tokens)-inter)
			if view != nil {
				sim = min(sc.dot[j], 1) // guard rounding
				sc.dot[j] = 0
			}
			sc.shared[j] = 0
			if j != i && sim > 0 { // dirty ER meets i itself
				sc.partners = append(sc.partners, int32(j))
				sc.sims = append(sc.sims, sim)
			}
		}
	}
	return true
}

// scoreRows is the exhaustive scoring step: the row kernel over every
// attribute, row chunks claimed by cfg.Workers goroutines. Counting
// shared tokens through the inverted index costs the sum over tokens of
// the products of their per-side posting lengths, where comparing every
// pair of token sets costs the number of pairs times the set sizes.
func scoreRows(ctx context.Context, profiles []Profile, kind model.Kind, cfg Config, view *weightedView, pick rowPick) error {
	n := len(profiles)
	px := buildPostings(profiles, kind, view)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+rowChunk-1)/rowChunk) // no more than chunks to claim
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &rowScratch{shared: make([]int32, n), met: make([]uint64, (n+63)/64), budget: postingPollBudget}
			if view != nil {
				sc.dot = make([]float64, n)
			}
			for {
				lo := int(next.Add(rowChunk)) - rowChunk
				if lo >= n || ctx.Err() != nil {
					return
				}
				for i := lo; i < min(lo+rowChunk, n); i++ {
					if !px.scoreRow(ctx, profiles, view, i, sc) {
						return
					}
					if len(sc.partners) > 0 {
						pick(i, sc.partners, sc.sims)
					}
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// scoreLSHRows is the approximate scoring step (Section 3.1.2): banded
// MinHash proposes the pairs, each is scored once by a merge of the two
// token lists, and the survivors are regrouped into per-attribute rows
// (ascending, because the candidates arrive sorted by (A, B) with
// A < B). ctx is polled every inductionCancelCheckEvery scored pairs.
func scoreLSHRows(ctx context.Context, profiles []Profile, kind model.Kind, cfg Config, view *weightedView, pick rowPick) error {
	signer := lsh.NewSigner(cfg.LSH.Rows*cfg.LSH.Bands, cfg.LSH.Seed)
	ix := lsh.NewIndex(cfg.LSH.Rows, cfg.LSH.Bands)
	for i := range profiles {
		ix.Add(int32(i), signer.SignHashes(profiles[i].Tokens))
	}
	pairs := ix.Candidates(func(a, b int32) bool {
		return kind != model.CleanClean || profiles[a].Ref.Source != profiles[b].Ref.Source
	})
	partners := make([][]int32, len(profiles))
	sims := make([][]float64, len(profiles))
	for k, c := range pairs {
		if k%inductionCancelCheckEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		sim := 0.0
		if view != nil {
			sim = view.cosine(&profiles[c.A], &profiles[c.B], int(c.A), int(c.B))
		} else {
			sim = Jaccard(profiles[c.A].Tokens, profiles[c.B].Tokens)
		}
		if sim > 0 {
			partners[c.A], sims[c.A] = append(partners[c.A], c.B), append(sims[c.A], sim)
			partners[c.B], sims[c.B] = append(partners[c.B], c.A), append(sims[c.B], sim)
		}
	}
	for i := range partners {
		if len(partners[i]) > 0 {
			pick(i, partners[i], sims[i])
		}
	}
	return ctx.Err()
}

// induce scores every attribute's row — exhaustively or over the LSH
// candidates — and hands each to pick.
func induce(ctx context.Context, profiles []Profile, kind model.Kind, cfg Config, pick rowPick) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var view *weightedView
	if cfg.Representation == TFIDF {
		view = buildTFIDF(profiles)
	}
	if cfg.LSH != nil {
		return scoreLSHRows(ctx, profiles, kind, cfg, view, pick)
	}
	return scoreRows(ctx, profiles, kind, cfg, view, pick)
}

// LMI runs Loose attribute-Match Induction (Algorithm 1 of the paper)
// over the attribute profiles: each attribute's row of similarities
// yields its maximum and, in the same pass, its candidates within Alpha
// of that maximum; mutual candidates become edges, and attributes are
// partitioned into the connected components of the edge graph
// (components of size >= 2; remaining attributes go to the glue cluster
// when enabled).
//
// LMI produces cohesive clusters: an edge requires both endpoints to rank
// each other among their near-best matches.
func LMI(profiles []Profile, kind model.Kind, cfg Config) *Partitioning {
	p, _ := LMICtx(context.Background(), profiles, kind, cfg)
	return p
}

// LMICtx is LMI with cooperative cancellation: the row loop polls ctx
// per row chunk and inside long posting walks, and the whole induction
// returns ctx.Err() as soon as cancellation is observed.
func LMICtx(ctx context.Context, profiles []Profile, kind model.Kind, cfg Config) (*Partitioning, error) {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.9
	}
	// Lines 2-13: a_j is a candidate of a_i when its similarity is
	// within Alpha of a_i's best. The row is complete, so the maximum
	// and the candidates come out of one visit.
	cand := make([][]int32, len(profiles))
	err := induce(ctx, profiles, kind, cfg, func(i int, partners []int32, sims []float64) {
		floor := cfg.Alpha * slices.Max(sims)
		for k, s := range sims {
			if s >= floor {
				cand[i] = append(cand[i], partners[k])
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Lines 14-16: mutual candidates become edges.
	uf := newUnionFind(len(profiles))
	for i, c := range cand {
		for _, j := range c {
			if int(j) < i {
				continue // resolved from j's side
			}
			if _, mutual := slices.BinarySearch(cand[j], int32(i)); mutual {
				uf.union(i, int(j))
			}
		}
	}

	// Line 17: connected components with cardinality > 1.
	return buildPartitioning(profiles, uf, cfg.Glue), nil
}

// AC runs the Attribute Clustering baseline (Papadakis et al., TKDE'13):
// every attribute is linked to its single most similar attribute (no
// mutuality requirement; the smallest index wins a tie), and connected
// components of these best-match links form the clusters. Compared to
// LMI it tends to chain attributes transitively ("similar to other
// similar attributes", Section 4.3).
func AC(profiles []Profile, kind model.Kind, cfg Config) *Partitioning {
	p, _ := ACCtx(context.Background(), profiles, kind, cfg)
	return p
}

// ACCtx is AC with cooperative cancellation, mirroring LMICtx.
func ACCtx(ctx context.Context, profiles []Profile, kind model.Kind, cfg Config) (*Partitioning, error) {
	best := make([]int32, len(profiles))
	for i := range best {
		best[i] = -1
	}
	err := induce(ctx, profiles, kind, cfg, func(i int, partners []int32, sims []float64) {
		at := 0
		for k := 1; k < len(sims); k++ {
			if sims[k] > sims[at] {
				at = k
			}
		}
		best[i] = partners[at]
	})
	if err != nil {
		return nil, err
	}

	uf := newUnionFind(len(profiles))
	for i, j := range best {
		if j >= 0 {
			uf.union(i, int(j))
		}
	}
	return buildPartitioning(profiles, uf, cfg.Glue), nil
}
