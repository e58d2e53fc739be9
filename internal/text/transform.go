// Package text implements the value transformation functions of the paper
// (Section 2.1): tokenization, normalization, q-gram and suffix
// extraction, and a stemming tokenizer that also drops stop words. A
// transformation function tau maps an attribute value to the set of
// terms used as blocking keys and as the elements of attribute profiles.
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
// the value and splits it on any non-alphanumeric rune.
//
// The paper applies plain tokenization with no stop-word removal; highly
// frequent tokens are instead handled downstream by Block Purging.
type Tokenizer struct{}

// NewTokenizer returns the tokenizer used throughout the reproduction.
func NewTokenizer() *Tokenizer { return &Tokenizer{} }

// Name implements Transform.
func (t *Tokenizer) Name() string { return "token" }

// Terms implements Transform.
func (t *Tokenizer) Terms(value string) []string {
	return appendTokens(nil, value)
}

// AppendTerms appends the terms Terms returns to dst, so a caller can
// reuse one slice across values.
func (t *Tokenizer) AppendTerms(dst []string, value string) []string {
	return appendTokens(dst, value)
}

// appendTokens appends the lowercased alphanumeric runs of value to dst
// and returns the extended slice.
func appendTokens(dst []string, value string) []string {
	start := -1
	for i, r := range value {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, strings.ToLower(value[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, strings.ToLower(value[start:]))
	}
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

// DefaultStopWords is the small English stop-word list the stemming
// tokenizer drops. The paper's experiments do not use it.
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
