package text

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenizerBasic(t *testing.T) {
	tr := NewTokenizer()
	got := tr.Terms("John Abram Jr")
	want := []string{"john", "abram", "jr"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizerPunctuationAndDigits(t *testing.T) {
	tr := NewTokenizer()
	got := tr.Terms("Abram st. 30 NY-85")
	want := []string{"abram", "st", "30", "ny", "85"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizerEmptyAndSymbols(t *testing.T) {
	tr := NewTokenizer()
	if got := tr.Terms(""); len(got) != 0 {
		t.Errorf("Terms(\"\") = %v, want empty", got)
	}
	if got := tr.Terms("--- !!! ..."); len(got) != 0 {
		t.Errorf("Terms(symbols) = %v, want empty", got)
	}
}

func TestTokenizerMinLength(t *testing.T) {
	tr := &Tokenizer{MinLength: 3}
	got := tr.Terms("a bb ccc dddd")
	want := []string{"ccc", "dddd"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizerStopWords(t *testing.T) {
	tr := &Tokenizer{MinLength: 1, StopWords: DefaultStopWords()}
	got := tr.Terms("the cat and the hat")
	want := []string{"cat", "hat"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizerUnicode(t *testing.T) {
	tr := NewTokenizer()
	got := tr.Terms("Modena–Reggio Émilia")
	want := []string{"modena", "reggio", "émilia"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizerLowercasesAlways(t *testing.T) {
	tr := NewTokenizer()
	f := func(s string) bool {
		for _, tok := range tr.Terms(s) {
			for _, r := range tok {
				if 'A' <= r && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizerDeterministic(t *testing.T) {
	tr := NewTokenizer()
	f := func(s string) bool {
		return reflect.DeepEqual(tr.Terms(s), tr.Terms(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQGramBasic(t *testing.T) {
	g := NewQGram(3)
	got := g.Terms("abcd")
	want := []string{"abc", "bcd"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestQGramShortValue(t *testing.T) {
	g := NewQGram(4)
	if got := g.Terms("ab"); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Errorf("Terms(short) = %v, want [ab]", got)
	}
	if got := g.Terms(""); got != nil {
		t.Errorf("Terms(\"\") = %v, want nil", got)
	}
}

func TestQGramNormalizes(t *testing.T) {
	g := NewQGram(3)
	a := g.Terms("Ellen  Smith")
	b := g.Terms("ellen-smith!")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("normalization differs: %v vs %v", a, b)
	}
	for _, gram := range a {
		if len([]rune(gram)) != 3 {
			t.Errorf("gram %q length != 3", gram)
		}
	}
}

func TestQGramMinimumQ(t *testing.T) {
	g := NewQGram(0)
	if g.Q != 2 {
		t.Errorf("NewQGram(0).Q = %d, want clamp to 2", g.Q)
	}
}

func TestQGramCount(t *testing.T) {
	g := NewQGram(2)
	f := func(s string) bool {
		norm := normalizeForGrams(s)
		grams := g.Terms(s)
		n := len([]rune(norm))
		switch {
		case n == 0:
			return len(grams) == 0
		case n <= 2:
			return len(grams) == 1
		default:
			return len(grams) == n-1
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransformNames(t *testing.T) {
	if NewTokenizer().Name() != "token" {
		t.Error("tokenizer name")
	}
	if NewQGram(3).Name() != "qgram" {
		t.Error("qgram name")
	}
}
