package text

// Suffix implements the blocking-key side of Suffix Array blocking
// (de Vries et al., TKDD 2011; cited as [7] by the BLAST paper): every
// token contributes all of its suffixes of length >= MinLength, so
// profiles sharing only a token ending ("möller" / "moeller" -> "ller")
// still co-occur in a block. Combined with Block Purging, which drops
// the huge blocks short suffixes create, this reproduces the classic
// suffix-array blocking behaviour inside the same pipeline.
type Suffix struct {
	// MinLength is the shortest suffix emitted (default 3).
	MinLength int
}

// NewSuffix returns a suffix transform with the given minimum length.
func NewSuffix(minLength int) *Suffix {
	if minLength < 2 {
		minLength = 2
	}
	return &Suffix{MinLength: minLength}
}

// Name implements Transform.
func (s *Suffix) Name() string { return "suffix" }

// Terms implements Transform.
func (s *Suffix) Terms(value string) []string {
	var out []string
	for _, tok := range appendTokens(nil, value) {
		runes := []rune(tok)
		if len(runes) < s.MinLength {
			out = append(out, tok)
			continue
		}
		for i := 0; len(runes)-i >= s.MinLength; i++ {
			out = append(out, string(runes[i:]))
		}
	}
	return out
}
