// Package kb provides the external-resource substrate used by graph
// expansion (paper §III-A) and node merging (§II-C). The paper plugs in
// ConceptNet, DBpedia, Wikidata and WordNet; those are network services and
// multi-gigabyte dumps, so this reproduction ships an in-memory knowledge
// base with the same shape — subject–predicate–object triples queried by
// node label — which the dataset generators populate from the same
// synthetic world that produced the corpora. The substitution preserves the
// property the paper relies on: the KB holds true relations about corpus
// entities, only some of which shorten paths between matching documents.
package kb

import (
	"strings"
)

// Relation is one edge fetched from an external resource: the related
// object and the predicate naming the relationship (e.g. "starring",
// "spouse", "relatedTo").
type Relation struct {
	Object    string
	Predicate string
}

// Resource is anything that can enumerate relations for a term, the only
// capability Algorithm 2 needs.
type Resource interface {
	// Related returns the relations of term, or nil when unknown.
	Related(term string) []Relation
}

// Memory is an in-memory triple store keyed by lower-case subject.
// The zero value is empty and usable.
type Memory struct {
	triples map[string][]Relation
}

// NewMemory returns an empty knowledge base.
func NewMemory() *Memory {
	return &Memory{triples: make(map[string][]Relation)}
}

// Add inserts the triple predicate(subject, object) in both directions:
// expansion treats relations as undirected edges, so a lookup of either
// endpoint returns the other.
func (m *Memory) Add(subject, predicate, object string) {
	if m.triples == nil {
		m.triples = make(map[string][]Relation)
	}
	s := normalize(subject)
	o := normalize(object)
	if s == "" || o == "" || s == o {
		return
	}
	m.triples[s] = append(m.triples[s], Relation{Object: o, Predicate: predicate})
	m.triples[o] = append(m.triples[o], Relation{Object: s, Predicate: predicate})
}

// Related implements Resource.
func (m *Memory) Related(term string) []Relation {
	if m == nil || m.triples == nil {
		return nil
	}
	return m.triples[normalize(term)]
}

func normalize(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// Union exposes several resources as one; lookups concatenate the results
// in order. It lets callers combine e.g. an entity KB with a concept net.
type Union []Resource

// Related implements Resource.
func (u Union) Related(term string) []Relation {
	var out []Relation
	for _, r := range u {
		if r == nil {
			continue
		}
		out = append(out, r.Related(term)...)
	}
	return out
}

// Empty is a Resource with no relations, useful as a default.
type Empty struct{}

// Related implements Resource.
func (Empty) Related(string) []Relation { return nil }
