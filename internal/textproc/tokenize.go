// Package textproc implements the text pre-processing used during graph
// creation (paper §II): tokenization, stop-word removal, stemming, numeric
// detection and n-gram term generation.
//
// The paper calls the processed values "terms"; a term is composed of one or
// more tokens (e.g. "The Sixth Sense" is a term with three tokens). All
// functions in this package are deterministic and allocation-conscious:
// they are on the hot path of graph construction.
package textproc

import (
	"strings"
	"unicode"
)

// Tokenize splits raw text into lower-cased word tokens. Separators are any
// non-letter/digit runes, so punctuation never survives into tokens.
// Purely numeric tokens are preserved (they feed numeric bucketing later).
func Tokenize(text string) []string {
	if text == "" {
		return nil
	}
	tokens := make([]string, 0, 8)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '.' && b.Len() > 0 && isDigitRun(b.String()):
			// Keep decimal points inside numbers ("3.14") so bucketing sees
			// the full value. A trailing '.' is trimmed below.
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	if len(tokens) == 0 {
		return nil
	}
	for i, t := range tokens {
		tokens[i] = strings.TrimRight(t, ".")
	}
	return tokens
}

func isDigitRun(s string) bool {
	seenDot := false
	for _, r := range s {
		if r == '.' {
			if seenDot {
				return false
			}
			seenDot = true
			continue
		}
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return s != ""
}

// IsNumeric reports whether the token parses as an integer or decimal
// number. Such tokens become candidates for equal-width bucketing (§II-C).
func IsNumeric(token string) bool {
	return isDigitRun(strings.TrimPrefix(token, "-"))
}

// Preprocessor bundles the pre-processing configuration applied to every
// cell value and text snippet before graph creation.
type Preprocessor struct {
	// RemoveStopwords drops tokens found in the stop-word list.
	RemoveStopwords bool
	// Stem applies the Porter stemmer to every non-numeric token, which is
	// how the paper merges different forms of a word ("planning"/"Plan").
	Stem bool
	// MaxNGram is the largest term size generated per text (paper default 3,
	// profiled on Wikipedia titles: 99% have at most three tokens).
	MaxNGram int
	// Stopwords overrides the default stop-word set when non-nil.
	Stopwords map[string]struct{}
}

// DefaultPreprocessor returns the configuration used throughout the paper's
// experiments: stop-word removal, stemming, and up to 3-token terms.
func DefaultPreprocessor() Preprocessor {
	return Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: 3}
}

// Tokens tokenizes text and applies stop-word removal and stemming.
// The returned slice preserves the original token order so that n-gram
// generation can run on top of it.
func (p Preprocessor) Tokens(text string) []string {
	raw := Tokenize(text)
	out := raw[:0]
	stop := p.Stopwords
	if stop == nil {
		stop = defaultStopwords
	}
	for _, t := range raw {
		if t == "" {
			continue
		}
		if p.RemoveStopwords {
			if _, ok := stop[t]; ok {
				continue
			}
		}
		if p.Stem && !IsNumeric(t) {
			t = Stem(t)
		}
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}

// NGrams returns every contiguous n-gram for n = 1..maxN over tokens,
// deduplicated while preserving first-occurrence order.
func NGrams(tokens []string, maxN int) []string {
	if len(tokens) == 0 {
		return nil
	}
	if maxN < 1 {
		maxN = 1
	}
	seen := make(map[string]struct{}, len(tokens)*maxN)
	out := make([]string, 0, len(tokens)*maxN)
	for n := 1; n <= maxN; n++ {
		for i := 0; i+n <= len(tokens); i++ {
			t := strings.Join(tokens[i:i+n], " ")
			if _, ok := seen[t]; ok {
				continue
			}
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}
