package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"The Sixth Sense", []string{"the", "sixth", "sense"}},
		{"Hello, world!", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"PG-13 rating", []string{"pg", "13", "rating"}},
		{"3.14 is pi", []string{"3.14", "is", "pi"}},
		{"ends with dot 42.", []string{"ends", "with", "dot", "42"}},
		{"COVID-19 cases: 1,234", []string{"covid", "19", "cases", "1", "234"}},
		{"Quentin Tarantino's movie", []string{"quentin", "tarantino", "s", "movie"}},
		{"naïve café", []string{"naïve", "café"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeLowercases(t *testing.T) {
	for _, tok := range Tokenize("MiXeD CaSe TEXT") {
		if tok != strings.ToLower(tok) {
			t.Errorf("token %q not lower-cased", tok)
		}
	}
}

func TestIsNumeric(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"42", true}, {"3.14", true}, {"-7", true}, {"", false},
		{"abc", false}, {"4a", false}, {"1.2.3", false}, {"1999", true},
	}
	for _, c := range cases {
		if got := IsNumeric(c.in); got != c.want {
			t.Errorf("IsNumeric(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPreprocessorTokens(t *testing.T) {
	p := DefaultPreprocessor()
	got := p.Tokens("The planning of the audit")
	// "the", "of" are stop words; "planning" stems to "plan".
	want := []string{"plan", "audit"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestPreprocessorKeepsNumbers(t *testing.T) {
	p := DefaultPreprocessor()
	got := p.Tokens("cases 1234 in 2021")
	want := []string{"case", "1234", "2021"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestPreprocessorNoStemNoStop(t *testing.T) {
	p := Preprocessor{MaxNGram: 1}
	got := p.Tokens("The planning processes")
	want := []string{"the", "planning", "processes"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestPreprocessorCustomStopwords(t *testing.T) {
	p := Preprocessor{RemoveStopwords: true, Stopwords: map[string]struct{}{"movie": {}}}
	got := p.Tokens("the movie club")
	want := []string{"the", "club"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestNGrams(t *testing.T) {
	toks := []string{"the", "sixth", "sense"}
	got := NGrams(toks, 3)
	want := []string{
		"the", "sixth", "sense",
		"the sixth", "sixth sense",
		"the sixth sense",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
}

func TestNGramsDedup(t *testing.T) {
	got := NGrams([]string{"a", "a", "a"}, 2)
	want := []string{"a", "a a"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
}

func TestNGramsEmptyAndBounds(t *testing.T) {
	if got := NGrams(nil, 3); got != nil {
		t.Errorf("NGrams(nil) = %v, want nil", got)
	}
	if got := NGrams([]string{"x"}, 0); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("NGrams maxN=0 = %v, want [x]", got)
	}
}

func TestTermsEndToEnd(t *testing.T) {
	p := DefaultPreprocessor()
	terms := NGrams(p.Tokens("The Sixth Sense"), p.MaxNGram)
	// stop word "the" removed; "sixth" -> "sixth", "sense" -> "sens".
	found := map[string]bool{}
	for _, tm := range terms {
		found[tm] = true
	}
	if !found["sixth"] || !found["sens"] || !found["sixth sens"] {
		t.Errorf("Terms = %v, missing expected n-grams", terms)
	}
}

func TestStemKnownWords(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"formaliti":    "formal",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		"planning":     "plan",
		"plans":        "plan",
		"auditing":     "audit",
		"matches":      "match",
		"matching":     "match",
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

func TestStemMergesWordForms(t *testing.T) {
	// The paper's motivating case: "planning" and "plans" must merge.
	if Stem("planning") != Stem("plans") {
		t.Errorf("planning/plans stem to %q/%q", Stem("planning"), Stem("plans"))
	}
	if Stem("auditing") != Stem("audited") {
		t.Errorf("auditing/audited stem to %q/%q", Stem("auditing"), Stem("audited"))
	}
}

func TestStemIdempotentProperty(t *testing.T) {
	// Stemming an already-stemmed common English word is stable for the
	// overwhelming majority of vocabulary; verify on a fixed dictionary
	// rather than random strings (Porter is not idempotent on arbitrary
	// byte soup, but must be on our stemmed corpus vocabulary).
	words := []string{
		"plan", "audit", "match", "movi", "director", "review", "actor",
		"countri", "claim", "tax", "concept", "hierarchi", "graph", "node",
		"walk", "embed", "vector", "tabl", "tupl", "attribut",
	}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not stable: %q -> %q -> %q", w, once, twice)
		}
	}
}

func TestStopwords(t *testing.T) {
	for w, want := range map[string]bool{"the": true, "and": true, "movie": false, "audit": false} {
		if _, got := defaultStopwords[w]; got != want {
			t.Errorf("%q: stop word %v, want %v", w, got, want)
		}
	}
}

func TestTokenizePropertyNoEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNGramsPropertyCount(t *testing.T) {
	// For k distinct tokens and maxN <= k, the number of n-grams is
	// sum_{n=1..maxN} (k-n+1) when all grams are distinct.
	f := func(k, maxN uint8) bool {
		kk := int(k%10) + 1
		nn := int(maxN%uint8(kk)) + 1
		toks := make([]string, kk)
		for i := range toks {
			toks[i] = string(rune('a' + i))
		}
		want := 0
		for n := 1; n <= nn; n++ {
			want += kk - n + 1
		}
		return len(NGrams(toks, nn)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
