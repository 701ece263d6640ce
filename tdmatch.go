// Package tdmatch implements unsupervised matching of data and text, a Go
// reproduction of "Unsupervised Matching of Data and Text" (Ahmadi, Sand,
// Papotti — ICDE 2022).
//
// Given two corpora — any mix of relational tables, taxonomies (structured
// text) and free text — tdmatch builds a joint graph over their content,
// learns node embeddings from random walks, and ranks the documents of one
// corpus against the other by cosine similarity, with no training labels:
//
//	movies, _ := tdmatch.NewTable("movies",
//	    []string{"title", "director", "genre"},
//	    [][]string{{"The Sixth Sense", "Shyamalan", "Thriller"}}, nil)
//	reviews, _ := tdmatch.NewText("reviews",
//	    []string{"Willis sees dead people in this thriller"}, nil)
//	model, _ := tdmatch.Build(movies, reviews, tdmatch.Defaults())
//	matches, _ := model.TopK("reviews:p0", 5)
//
// The pipeline follows the paper: graph creation with intersect filtering
// and node merging (§II), optional expansion with an external knowledge
// resource and MSP compression (§III), random walks plus Word2Vec (§IV-A),
// and cosine top-k matching of metadata nodes (§IV-B).
package tdmatch

import (
	"bytes"
	"hash/crc32"
	"io"
	"os"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/kb"
	"github.com/tdmatch/tdmatch/internal/match"
)

// Corpus is one input collection: a table, a taxonomy, or free text.
type Corpus struct {
	c *corpus.Corpus
	// file identifies the file LoadCorpus read the corpus from; nil for a
	// corpus built in memory.
	file *fileSum
}

// NewText builds a text corpus from snippets (sentences or paragraphs —
// the granularity is the caller's choice, as in the paper). Snippet i gets
// ID "<name>:p<i>" unless ids is provided.
func NewText(name string, snippets []string, ids []string) (*Corpus, error) {
	c, err := corpus.NewText(name, snippets, ids)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// NewTable builds a relational corpus; every row becomes one document with
// ID "<name>:t<i>" unless ids is provided.
func NewTable(name string, columns []string, rows [][]string, ids []string) (*Corpus, error) {
	c, err := corpus.NewTable(name, columns, rows, ids)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// TaxonomyNode is one concept of a structured-text corpus.
type TaxonomyNode struct {
	// ID must be unique within the corpus.
	ID string
	// Text is the concept label.
	Text string
	// Parent references the parent node ID ("" for roots).
	Parent string
}

// NewTaxonomy builds a structured-text corpus whose documents are hierarchy
// nodes; parent-child pairs are connected in the graph (§II-A).
func NewTaxonomy(name string, nodes []TaxonomyNode) (*Corpus, error) {
	converted := make([]corpus.Node, len(nodes))
	for i, n := range nodes {
		converted[i] = corpus.Node{ID: n.ID, Text: n.Text, Parent: n.Parent}
	}
	c, err := corpus.NewStructured(name, converted)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// LoadCorpus reads a corpus from disk, dispatching on the extension:
// .csv/.tsv become tables, .json (an array of {id, text, parent} objects)
// becomes a taxonomy, anything else is read as one text document per line.
// It records the file's size and CRC32C, which a model built on the
// corpus stores in its v6 snapshots: Snapshot.BindFiles compares them
// with the files it is pointed at and, when both match, binds without
// parsing them.
func LoadCorpus(path, name string) (*Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := corpus.Read(bytes.NewReader(data), path, name)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c, file: &fileSum{Size: int64(len(data)), CRC32C: crc32c(data)}}, nil
}

// fileSum identifies the contents of a corpus file by its size and
// CRC32C (Castagnoli), the fingerprint a v6 snapshot stores for each of
// its base corpus files.
type fileSum struct {
	Size   int64
	CRC32C uint32
}

// sumFile fingerprints the file at path, streaming it through the
// checksum rather than holding it in memory.
func sumFile(path string) (fileSum, error) {
	f, err := os.Open(path)
	if err != nil {
		return fileSum{}, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return fileSum{}, err
	}
	return fileSum{Size: n, CRC32C: h.Sum32()}, nil
}

// Name returns the corpus name.
func (c *Corpus) Name() string { return c.c.Name }

// Len returns the number of documents.
func (c *Corpus) Len() int { return c.c.Len() }

// IDs returns all document IDs in corpus order.
func (c *Corpus) IDs() []string { return c.c.IDs() }

// DocText returns the concatenated text of a document.
func (c *Corpus) DocText(id string) (string, bool) {
	d, ok := c.c.Doc(id)
	if !ok {
		return "", false
	}
	return d.Text(), true
}

// Paths returns root-to-node ID paths for a taxonomy corpus (used by
// taxonomy evaluation); nil for other corpus kinds.
func (c *Corpus) Paths() map[string][]string {
	if c.c.Kind != corpus.Structured {
		return nil
	}
	return c.c.Paths()
}

// Relation is one connection fetched from an external resource during
// graph expansion, e.g. style(Tarantino, Comedy).
type Relation struct {
	// Object is the related entity or concept.
	Object string
	// Predicate names the relationship.
	Predicate string
}

// Resource supplies external relations for graph expansion (§III-A); plug
// in knowledge bases, ontologies or concept networks.
type Resource interface {
	// Related returns the relations of a term, nil when unknown.
	Related(term string) []Relation
}

// NewMemoryResource builds an in-memory Resource from triples.
func NewMemoryResource(triples [][3]string) Resource {
	m := kb.NewMemory()
	for _, t := range triples {
		m.Add(t[0], t[1], t[2])
	}
	return memResource{m}
}

type memResource struct{ m *kb.Memory }

func (r memResource) Related(term string) []Relation {
	rels := r.m.Related(term)
	out := make([]Relation, len(rels))
	for i, rel := range rels {
		out[i] = Relation{Object: rel.Object, Predicate: rel.Predicate}
	}
	return out
}

// resourceAdapter bridges the public Resource to the internal kb.Resource.
type resourceAdapter struct{ r Resource }

func (a resourceAdapter) Related(term string) []kb.Relation {
	rels := a.r.Related(term)
	out := make([]kb.Relation, len(rels))
	for i, rel := range rels {
		out[i] = kb.Relation{Object: rel.Object, Predicate: rel.Predicate}
	}
	return out
}

// Synonyms declares surface variants that should share one graph node
// (synonyms, acronyms, known typos — §II-C).
type Synonyms struct {
	// Canonical is the representative form.
	Canonical string
	// Variants are merged into the canonical form.
	Variants []string
}

func buildLexicon(groups []Synonyms) *kb.Lexicon {
	if len(groups) == 0 {
		return nil
	}
	l := kb.NewLexicon()
	for _, g := range groups {
		l.AddSynonyms(g.Canonical, g.Variants...)
	}
	return l
}

// Match is one ranked candidate returned by the model: the matched
// document's ID and its cosine similarity in [-1, 1]. It is the type the
// serving indexes rank into, so a ranking reaches the caller without a
// copy; String renders it as "id(score)" with three decimals, the format
// the CLIs print.
type Match = match.Scored
