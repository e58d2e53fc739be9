package text

import (
	"reflect"
	"testing"
	"testing/quick"
)

// TestStemKnownPairs checks classic Porter reference pairs.
func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		// step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// step 1b
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubling": "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// step 1c
		"happy": "happi",
		"sky":   "sky",
		// step 2
		"relational":  "relat",
		"conditional": "condit",
		"rational":    "ration",
		"valenci":     "valenc",
		"digitizer":   "digit",
		"operator":    "oper",
		// step 3
		"triplicate": "triplic",
		"formative":  "form",
		"formalize":  "formal",
		"electrical": "electr",
		"hopeful":    "hope",
		"goodness":   "good",
		// step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adoption":    "adopt",
		"communism":   "commun",
		"activate":    "activ",
		"effective":   "effect",
		// step 5
		"probate":  "probat",
		"rate":     "rate",
		"cease":    "ceas",
		"controll": "control",
		"roll":     "roll",
		// blocking-relevant merges
		"retailer":  "retail",
		"retailing": "retail",
		"retail":    "retail",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "by"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnStems(t *testing.T) {
	// Stemming a stem should usually be a fixpoint for these examples.
	for _, w := range []string{"retail", "motor", "plaster", "hop", "size"} {
		if got := Stem(Stem(w)); got != Stem(w) {
			t.Errorf("Stem not stable on %q: %q then %q", w, Stem(w), got)
		}
	}
}

func TestStemNeverPanicsOrGrows(t *testing.T) {
	f := func(s string) bool {
		// restrict to plausible lowercase tokens
		tok := ""
		for _, r := range s {
			if r >= 'a' && r <= 'z' {
				tok += string(r)
			}
			if len(tok) > 24 {
				break
			}
		}
		out := Stem(tok)
		return len(out) <= len(tok)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasure(t *testing.T) {
	cases := map[string]int{
		"tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
		"trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
		"troubles": 2, "private": 2, "oaten": 2,
	}
	for w, want := range cases {
		if got := measure([]byte(w)); got != want {
			t.Errorf("measure(%q) = %d, want %d", w, got, want)
		}
	}
}

func TestPipelineStemming(t *testing.T) {
	p := NewStemmingTokenizer()
	got := p.Terms("The retailers were retailing")
	want := []string{"retail", "were", "retail"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
	if p.Name() != "token+stem" {
		t.Errorf("Name = %q", p.Name())
	}
	// Stop words are dropped after stemming: "this" and "was" stem to
	// "thi" and "wa" and stay, "ins" stems to the stop word "in" and goes.
	got = p.Terms("This was the ins")
	want = []string{"thi", "wa"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestPipelineStemMergesBlockingKeys(t *testing.T) {
	// The blocking motivation: "retailer" (p4) and "retail" (p2, p3) land
	// in one block under the stemming pipeline but not under plain
	// tokenization.
	plain := NewTokenizer()
	stem := NewStemmingTokenizer()
	a := plain.Terms("retailer")
	b := plain.Terms("retail")
	if a[0] == b[0] {
		t.Fatal("precondition: plain tokens differ")
	}
	a = stem.Terms("retailer")
	b = stem.Terms("retail")
	if a[0] != b[0] {
		t.Errorf("stemmed keys differ: %q vs %q", a[0], b[0])
	}
}
