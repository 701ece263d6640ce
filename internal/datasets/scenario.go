// Package datasets generates the five evaluation scenarios of the paper's
// §V as synthetic equivalents: IMDb (text to data), CoronaCheck (text to
// data, numeric-heavy), Audit (text to structured text), Snopes/Politifact
// (text to text) and STS (graded sentence pairs). Each generator creates a
// closed "world" of entities and facts, derives the two corpora and the
// ground truth from it, and populates the external knowledge base with
// world facts the corpora do not state — mirroring how DBpedia relates to
// the real IMDb. All generation is deterministic given a seed.
package datasets

import (
	"math/rand"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/kb"
)

// Scenario is a fully materialized matching task.
type Scenario struct {
	// Name identifies the scenario ("imdb-wt", "corona-gen", ...).
	Name string
	// First and Second are the corpora in graph-creation order; queries
	// come from Second (the text side) and targets from First, matching
	// the paper's tasks (find tuples/concepts/facts for each query text).
	First, Second *corpus.Corpus
	// Queries lists the query document IDs (all in Second).
	Queries []string
	// Targets lists the candidate document IDs (all in First).
	Targets []string
	// Truth maps query IDs to their correct target IDs.
	Truth map[string][]string
	// KB is the external resource for expansion (may be empty, never nil).
	KB *kb.Memory
	// Lexicon holds synonyms/acronyms for node merging (may be empty).
	Lexicon *kb.Lexicon
	// General is the pre-training corpus for the S-BE / Wikipedia2Vec
	// substitutes.
	General [][]string
}

// TruthSet returns the relevant-target set for a query.
func (s *Scenario) TruthSet(query string) map[string]bool {
	out := map[string]bool{}
	for _, t := range s.Truth[query] {
		out[t] = true
	}
	return out
}

// rng wraps math/rand with the deterministic helpers generators need.
type rng struct{ *rand.Rand }

func newRng(seed int64) rng {
	return rng{rand.New(rand.NewSource(seed))}
}

// pick returns a uniform element of list.
func pick[T any](r rng, list []T) T {
	return list[r.Intn(len(list))]
}

// pickN returns n distinct elements (or all when n >= len).
func pickN[T any](r rng, list []T, n int) []T {
	if n >= len(list) {
		out := make([]T, len(list))
		copy(out, list)
		return out
	}
	idx := r.Perm(len(list))[:n]
	out := make([]T, n)
	for i, j := range idx {
		out[i] = list[j]
	}
	return out
}

// maybe returns true with probability p.
func (r rng) maybe(p float64) bool { return r.Float64() < p }

// shuffled returns a shuffled copy.
func shuffled[T any](r rng, list []T) []T {
	out := make([]T, len(list))
	copy(out, list)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
