package datasets

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"blast/internal/model"
	"blast/internal/stats"
)

// Stream synthesizes an arbitrarily large dirty corpus profile by
// profile: profile i is a pure function of (seed, i), so generation
// costs O(vocabulary) memory no matter how many profiles are drawn and
// any index range can be produced independently and in any order. This
// is the source cmd/datagen -profiles uses to write millions of
// profiles without materializing them, and the load experiment uses to
// drive sustained insert traffic.
//
// Every profile whose index ends the duplicate cadence re-describes the
// entity of the preceding profile under independent noise (dropped or
// misspelled tokens), so the corpus carries ground truth that can be
// emitted streamingly too: the matching pair (i-1, i) is known the
// moment i is.
type Stream struct {
	seed    uint64
	n       int
	title   *vocab
	venue   *vocab
	ambient *vocab
}

// streamDupEvery is the duplicate cadence: profile i duplicates profile
// i-1 whenever i % streamDupEvery == 1 (so ~10% of profiles are
// re-descriptions, in line with the dirty benchmark datasets).
const streamDupEvery = 10

// NewStream builds a streaming corpus of n profiles. Vocabularies are
// sized sublinearly in n (bounded below and above) so token collisions
// across distinct entities — the hard case for blocking — stay present
// at every scale.
func NewStream(n int, seed uint64) *Stream {
	if n < 0 {
		n = 0
	}
	vsize := 1000
	if n > 100_000 {
		vsize = 8000
	}
	rng := stats.NewRNG(seed ^ 0x57ea3)
	return &Stream{
		seed:    seed,
		n:       n,
		title:   newVocab(rng, 0x57ea3+1, vsize, 0.8),
		venue:   newVocab(rng, 0x57ea3+2, vsize/10, 0.8),
		ambient: newVocab(rng, 0x57ea3+3, 400, 0.8),
	}
}

// Len returns the number of profiles in the stream.
func (s *Stream) Len() int { return s.n }

// Duplicate reports the earlier profile that profile i re-describes,
// if any — the streaming ground truth.
func (s *Stream) Duplicate(i int) (int, bool) {
	if i > 0 && i < s.n && i%streamDupEvery == 1 {
		return i - 1, true
	}
	return 0, false
}

// streamMix derives the per-index RNG seed.
func streamMix(seed uint64, i int) uint64 {
	return (seed + uint64(i) + 1) * 0x9e3779b97f4a7c15
}

// skewDraw samples a vocabulary rank with a power-law-ish skew toward
// low ranks using only the per-profile RNG (the shared Zipf sampler is
// stateful and would break per-index purity).
func skewDraw(r *stats.RNG, size int) int {
	f := r.Float64() * r.Float64()
	i := int(f * float64(size))
	if i >= size {
		i = size - 1
	}
	return i
}

// Profile synthesizes profile i. Pure: the same (seed, i) always yields
// the same profile, byte for byte.
func (s *Stream) Profile(i int) model.Profile {
	entity := i
	dup := false
	if d, ok := s.Duplicate(i); ok {
		entity, dup = d, true
	}
	// Entity tokens come from the ENTITY's stream so both descriptions
	// share them; the duplicate perturbs the rendering with its own.
	er := stats.NewRNG(streamMix(s.seed, entity))
	nt := 3 + er.Intn(3)
	title := make([]string, nt)
	for k := range title {
		title[k] = s.title.at(skewDraw(er, s.title.size()))
	}
	venue := s.venue.at(skewDraw(er, s.venue.size()))
	year := 1970 + er.Intn(55)

	p := model.Profile{ID: "s" + strconv.Itoa(i)}
	if dup {
		nr := stats.NewRNG(streamMix(s.seed, i) ^ 0xd0b)
		out := make([]string, 0, len(title))
		for _, tok := range title {
			switch {
			case len(out) > 0 && nr.Float64() < 0.2: // drop a token (never all)
				continue
			case len(tok) > 3 && nr.Float64() < 0.2: // adjacent-letter typo
				b := []byte(tok)
				k := 1 + nr.Intn(len(b)-2)
				b[k], b[k+1] = b[k+1], b[k]
				tok = string(b)
			}
			out = append(out, tok)
		}
		title = out
		if nr.Float64() < 0.3 {
			title = append(title, s.ambient.at(nr.Intn(s.ambient.size())))
		}
		if nr.Float64() < 0.3 {
			venue = ""
		}
	}
	p.Add("title", strings.Join(title, " "))
	if venue != "" {
		p.Add("venue", venue)
	}
	p.Add("year", strconv.Itoa(year))
	return p
}

// Profiles materializes the index range [lo, hi) — the batching helper
// for insert drivers.
func (s *Stream) Profiles(lo, hi int) []model.Profile {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if hi <= lo {
		return nil
	}
	out := make([]model.Profile, hi-lo)
	for i := range out {
		out[i] = s.Profile(lo + i)
	}
	return out
}

// WriteE1 emits the whole stream as long-form CSV triples (the
// WriteCollection format) without materializing it: memory stays
// bounded at one profile regardless of Len.
func (s *Stream) WriteE1(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "attribute", "value"}); err != nil {
		return fmt.Errorf("datasets: write header: %w", err)
	}
	for i := 0; i < s.n; i++ {
		p := s.Profile(i)
		for _, pair := range p.Pairs {
			if err := cw.Write([]string{p.ID, pair.Name, pair.Value}); err != nil {
				return fmt.Errorf("datasets: write profile %q: %w", p.ID, err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTruth emits the stream's matching pairs as (id1, id2) rows (the
// WriteTruth format), streamingly.
func (s *Stream) WriteTruth(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id1", "id2"}); err != nil {
		return fmt.Errorf("datasets: write truth header: %w", err)
	}
	for i := 0; i < s.n; i++ {
		d, ok := s.Duplicate(i)
		if !ok {
			continue
		}
		if err := cw.Write([]string{"s" + strconv.Itoa(d), "s" + strconv.Itoa(i)}); err != nil {
			return fmt.Errorf("datasets: write truth pair: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
