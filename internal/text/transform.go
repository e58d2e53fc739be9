// Package text implements the value transformation functions of the paper
// (Section 2.1): tokenization, normalization, q-gram extraction and
// optional stop-word removal. A transformation function tau maps an
// attribute value to the set of terms used as blocking keys and as the
// elements of attribute profiles.
package text

import (
	"strings"
	"unicode"
)

// Transform maps an attribute value to its derived terms. Implementations
// must be deterministic and safe for concurrent use.
type Transform interface {
	// Terms returns the terms derived from value. The result may contain
	// duplicates; callers that need sets must deduplicate.
	Terms(value string) []string
	// Name identifies the transformation (used in reports).
	Name() string
}

// Tokenizer is the default value transformation of BLAST: it lowercases
// the value and splits it on any non-alphanumeric rune. Tokens shorter
// than MinLength are dropped.
//
// The paper applies plain tokenization with no stop-word removal; highly
// frequent tokens are instead handled downstream by Block Purging.
type Tokenizer struct {
	// MinLength drops tokens with fewer runes. Zero keeps everything.
	MinLength int
	// StopWords, when non-nil, drops exact (lowercased) matches.
	StopWords map[string]bool
}

// NewTokenizer returns the tokenizer used throughout the reproduction:
// lowercase, split on non-alphanumerics, keep tokens of length >= 1.
func NewTokenizer() *Tokenizer {
	return &Tokenizer{MinLength: 1}
}

// Name implements Transform.
func (t *Tokenizer) Name() string { return "token" }

// Terms implements Transform.
func (t *Tokenizer) Terms(value string) []string {
	return t.appendTokens(nil, value)
}

// AppendTerms appends the terms Terms returns to dst, so a caller can
// reuse one slice across values.
func (t *Tokenizer) AppendTerms(dst []string, value string) []string {
	return t.appendTokens(dst, value)
}

// appendTokens tokenizes value into dst and returns the extended slice.
func (t *Tokenizer) appendTokens(dst []string, value string) []string {
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := strings.ToLower(value[start:end])
		start = -1
		if t.MinLength > 0 && len([]rune(tok)) < t.MinLength {
			return
		}
		if t.StopWords != nil && t.StopWords[tok] {
			return
		}
		dst = append(dst, tok)
	}
	for i, r := range value {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(value))
	return dst
}

// QGram extracts overlapping character q-grams from the lowercased,
// whitespace-normalized value. It implements the q-grams alternative
// mentioned in Section 3.2 of the paper.
type QGram struct {
	// Q is the gram size; values shorter than Q yield the whole value.
	Q int
}

// NewQGram returns a q-gram transform with the given size (minimum 2).
func NewQGram(q int) *QGram {
	if q < 2 {
		q = 2
	}
	return &QGram{Q: q}
}

// Name implements Transform.
func (g *QGram) Name() string { return "qgram" }

// Terms implements Transform.
func (g *QGram) Terms(value string) []string {
	norm := normalizeForGrams(value)
	if norm == "" {
		return nil
	}
	runes := []rune(norm)
	if len(runes) <= g.Q {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-g.Q+1)
	for i := 0; i+g.Q <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+g.Q]))
	}
	return grams
}

// normalizeForGrams lowercases and squeezes non-alphanumerics to single
// spaces, trimming the ends.
func normalizeForGrams(value string) string {
	var b strings.Builder
	b.Grow(len(value))
	space := false
	for _, r := range value {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			b.WriteRune(unicode.ToLower(r))
		default:
			space = true
		}
	}
	return b.String()
}

// DefaultStopWords is a small English stop-word list for users who opt in
// to stop-word removal. The paper's experiments do not use it.
func DefaultStopWords() map[string]bool {
	words := []string{
		"a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
		"if", "in", "into", "is", "it", "no", "not", "of", "on", "or",
		"such", "that", "the", "their", "then", "there", "these", "they",
		"this", "to", "was", "will", "with",
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}
