package text

// Stem reduces an English word to its stem with the Porter algorithm
// (Porter, 1980). The paper's value transformation function tau is "a
// concatenation of text transformation functions (e.g. tokenization,
// stop-words removal, lemmatization)" — stemming is the classic cheap
// stand-in for lemmatization in blocking pipelines, merging inflected
// forms ("retailer"/"retailing" -> "retail") into one blocking key.
//
// The input must already be lowercase (as produced by Tokenizer); words
// of length <= 2 are returned unchanged.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return string(w)
}

// isCons reports whether w[i] is a consonant in Porter's sense: not a
// vowel, and 'y' is a consonant only when following a vowel-position.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	default:
		return true
	}
}

// measure computes m, the number of VC sequences in w[:len].
func measure(w []byte) int {
	n := 0
	i := 0
	// skip initial consonants
	for i < len(w) && isCons(w, i) {
		i++
	}
	for {
		// skip vowels
		for i < len(w) && !isCons(w, i) {
			i++
		}
		if i >= len(w) {
			return n
		}
		// skip consonants
		for i < len(w) && isCons(w, i) {
			i++
		}
		n++
		if i >= len(w) {
			return n
		}
	}
}

// hasVowel reports whether w contains a vowel.
func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// doubleCons reports whether w ends in a doubled consonant.
func doubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// cvc reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func cvc(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends reports whether w ends with suffix and returns the stem length.
func ends(w []byte, suffix string) (int, bool) {
	if len(w) < len(suffix) {
		return 0, false
	}
	k := len(w) - len(suffix)
	if string(w[k:]) != suffix {
		return 0, false
	}
	return k, true
}

// replace swaps suffix for repl when the stem measure condition holds.
func replace(w []byte, suffix, repl string, minM int) ([]byte, bool) {
	k, ok := ends(w, suffix)
	if !ok {
		return w, false
	}
	if measure(w[:k]) <= minM {
		return w, true // matched but condition failed: stop trying others
	}
	return append(w[:k], repl...), true
}

func step1a(w []byte) []byte {
	if k, ok := ends(w, "sses"); ok {
		return w[:k+2]
	}
	if k, ok := ends(w, "ies"); ok {
		return append(w[:k], 'i')
	}
	if _, ok := ends(w, "ss"); ok {
		return w
	}
	if k, ok := ends(w, "s"); ok && k > 0 {
		return w[:k]
	}
	return w
}

func step1b(w []byte) []byte {
	if k, ok := ends(w, "eed"); ok {
		if measure(w[:k]) > 0 {
			return w[:k+2]
		}
		return w
	}
	var stem []byte
	if k, ok := ends(w, "ed"); ok && hasVowel(w[:k]) {
		stem = w[:k]
	} else if k, ok := ends(w, "ing"); ok && hasVowel(w[:k]) {
		stem = w[:k]
	} else {
		return w
	}
	// fix-ups after removing ed/ing
	if _, ok := ends(stem, "at"); ok {
		return append(stem, 'e')
	}
	if _, ok := ends(stem, "bl"); ok {
		return append(stem, 'e')
	}
	if _, ok := ends(stem, "iz"); ok {
		return append(stem, 'e')
	}
	if doubleCons(stem) {
		last := stem[len(stem)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	}
	if measure(stem) == 1 && cvc(stem) {
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if k, ok := ends(w, "y"); ok && hasVowel(w[:k]) {
		return append(w[:k], 'i')
	}
	return w
}

var step2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if out, matched := replace(w, r.from, r.to, 0); matched {
			return out
		}
	}
	return w
}

var step3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if out, matched := replace(w, r.from, r.to, 0); matched {
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	// "ion" requires a preceding s or t.
	if k, ok := ends(w, "ion"); ok && k > 0 && (w[k-1] == 's' || w[k-1] == 't') {
		if measure(w[:k]) > 1 {
			return w[:k]
		}
		return w
	}
	for _, s := range step4Suffixes {
		if k, ok := ends(w, s); ok {
			if measure(w[:k]) > 1 {
				return w[:k]
			}
			return w
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if k, ok := ends(w, "e"); ok {
		m := measure(w[:k])
		if m > 1 || (m == 1 && !cvc(w[:k])) {
			return w[:k]
		}
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && doubleCons(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}

// StemmingTokenizer is the full tau of the paper, "a concatenation of
// text transformation functions" (Section 2.1): it tokenizes like
// Tokenizer, stems each token with Stem, then drops the stems that are
// in DefaultStopWords.
type StemmingTokenizer struct{}

// stopWords is DefaultStopWords, built once for every StemmingTokenizer.
var stopWords = DefaultStopWords()

// NewStemmingTokenizer returns the stemming tokenizer.
func NewStemmingTokenizer() *StemmingTokenizer { return &StemmingTokenizer{} }

// Name implements Transform.
func (*StemmingTokenizer) Name() string { return "token+stem" }

// Terms implements Transform.
func (*StemmingTokenizer) Terms(value string) []string {
	terms := appendTokens(nil, value)
	out := terms[:0]
	for _, t := range terms {
		if t = Stem(t); !stopWords[t] {
			out = append(out, t)
		}
	}
	return out
}
