// Package baselines implements the comparison methods of the paper's §V:
// unsupervised baselines trained on the corpora at hand (W2VEC, D2VEC),
// pre-trained unsupervised baselines (S-BE substitute, BM25), and the
// supervised stand-ins for the transformer methods (RANK*, DITTO*, TAPAS*,
// DEEP-M*, L-BE*) — logistic models over lexical and embedding features,
// trained with the paper's protocol (5-fold cross validation, 60% of the
// annotated pairs). See DESIGN.md for the substitution rationale.
package baselines

import (
	"maps"
	"math"
	"slices"

	"github.com/tdmatch/tdmatch/internal/textproc"
)

// TFIDF is a sparse TF-IDF vectorizer over a document collection.
type TFIDF struct {
	pre  textproc.Preprocessor
	df   map[string]int
	n    int
	docs map[string]map[string]float64 // docID -> term -> weight
}

// NewTFIDF indexes the given documents (id → raw text).
func NewTFIDF(docs map[string]string) *TFIDF {
	t := &TFIDF{
		pre:  textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: 1},
		df:   make(map[string]int),
		docs: make(map[string]map[string]float64, len(docs)),
	}
	t.n = len(docs)
	raw := make(map[string]map[string]int, len(docs))
	for id, text := range docs {
		tf := map[string]int{}
		for _, tok := range t.pre.Tokens(text) {
			tf[tok]++
		}
		raw[id] = tf
		for tok := range tf {
			t.df[tok]++
		}
	}
	for id, tf := range raw {
		t.docs[id] = t.weigh(tf)
	}
	return t
}

func (t *TFIDF) idf(tok string) float64 {
	return math.Log(float64(1+t.n) / float64(1+t.df[tok]))
}

// weigh builds the unit-norm vector of a term-frequency map. The norm is
// summed in term order, so a vector is a function of its text, not of
// map iteration order.
func (t *TFIDF) weigh(tf map[string]int) map[string]float64 {
	v := make(map[string]float64, len(tf))
	var norm float64
	for _, tok := range slices.Sorted(maps.Keys(tf)) {
		w := (1 + math.Log(float64(tf[tok]))) * t.idf(tok)
		v[tok] = w
		norm += w * w
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for tok := range v {
			v[tok] *= inv
		}
	}
	return v
}

// Vector returns the (unit-norm) TF-IDF vector of an indexed document.
func (t *TFIDF) Vector(id string) map[string]float64 { return t.docs[id] }

// Embed vectorizes unindexed text with the collection's IDF statistics.
func (t *TFIDF) Embed(text string) map[string]float64 {
	tf := map[string]int{}
	for _, tok := range t.pre.Tokens(text) {
		tf[tok]++
	}
	return t.weigh(tf)
}

// CosineSparse returns the dot product of two unit-norm sparse vectors
// (= cosine similarity), summed in term order so that equal vectors give
// equal bits.
func CosineSparse(a, b map[string]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for _, tok := range slices.Sorted(maps.Keys(a)) {
		if w2, ok := b[tok]; ok {
			s += a[tok] * w2
		}
	}
	return s
}

// BM25 is the classic Okapi ranking function over a target collection,
// the traditional-IR baseline the paper's related work contrasts with.
type BM25 struct {
	pre    textproc.Preprocessor
	k1, b  float64
	df     map[string]int
	docs   map[string]map[string]int
	length map[string]int
	avgLen float64
	n      int
}

// NewBM25 indexes the target documents (id → raw text).
func NewBM25(docs map[string]string) *BM25 {
	m := &BM25{
		pre:    textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: 1},
		k1:     1.2,
		b:      0.75,
		df:     map[string]int{},
		docs:   map[string]map[string]int{},
		length: map[string]int{},
	}
	m.n = len(docs)
	total := 0
	for id, text := range docs {
		tf := map[string]int{}
		toks := m.pre.Tokens(text)
		for _, tok := range toks {
			tf[tok]++
		}
		m.docs[id] = tf
		m.length[id] = len(toks)
		total += len(toks)
		for tok := range tf {
			m.df[tok]++
		}
	}
	if m.n > 0 {
		m.avgLen = float64(total) / float64(m.n)
	}
	return m
}

// Score returns the BM25 score of query text against an indexed document.
func (m *BM25) Score(query, docID string) float64 {
	tf := m.docs[docID]
	if tf == nil {
		return 0
	}
	var s float64
	dl := float64(m.length[docID])
	for _, tok := range m.pre.Tokens(query) {
		f := float64(tf[tok])
		if f == 0 {
			continue
		}
		idf := math.Log(1 + (float64(m.n)-float64(m.df[tok])+0.5)/(float64(m.df[tok])+0.5))
		s += idf * f * (m.k1 + 1) / (f + m.k1*(1-m.b+m.b*dl/m.avgLen))
	}
	return s
}
