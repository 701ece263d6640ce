// Package corpus defines the document model shared by every stage of the
// pipeline. A corpus is one of three kinds (paper §II): a relational table
// whose documents are tuples, a structured text whose documents are
// hierarchy nodes (e.g. taxonomy concepts), or plain text whose documents
// are user-defined snippets (sentences or paragraphs).
package corpus

import (
	"fmt"
	"strconv"

	"github.com/tdmatch/tdmatch/internal/textproc"
)

// Kind identifies the structure of a corpus.
type Kind uint8

const (
	// Text is a corpus of free-text documents (sentences or paragraphs).
	Text Kind = iota
	// Table is a relational table; each document is one tuple.
	Table
	// Structured is hierarchical text (e.g. a taxonomy); each document is a
	// node and carries a parent reference.
	Structured
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case Text:
		return "text"
	case Table:
		return "table"
	case Structured:
		return "structured"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is one attribute value of a document. For text corpora Column is
// empty and Text holds the whole snippet; for tables Column names the
// attribute the value belongs to.
type Value struct {
	Column string
	Text   string
}

// Document is the unit of matching: a tuple, a taxonomy node, or a text
// snippet. IDs must be unique within their corpus.
type Document struct {
	ID     string
	Values []Value
	// Parent is the ID of the parent document for Structured corpora; empty
	// for roots and for other corpus kinds.
	Parent string
}

// Text concatenates all values of the document, space separated. It is the
// serialization used by text-oriented baselines.
func (d Document) Text() string {
	switch len(d.Values) {
	case 0:
		return ""
	case 1:
		return d.Values[0].Text
	}
	n := 0
	for _, v := range d.Values {
		n += len(v.Text) + 1
	}
	buf := make([]byte, 0, n)
	for i, v := range d.Values {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, v.Text...)
	}
	return string(buf)
}

// Serialize renders the document in the [COL] c [VAL] v format used by the
// paper when feeding tuples to sequence baselines (§V-A).
func (d Document) Serialize() string {
	n := 0
	for _, v := range d.Values {
		n += len(v.Column) + len(v.Text) + 12
	}
	buf := make([]byte, 0, n)
	for _, v := range d.Values {
		if v.Column != "" {
			buf = append(buf, "[COL] "...)
			buf = append(buf, v.Column...)
			buf = append(buf, ' ')
		}
		buf = append(buf, "[VAL] "...)
		buf = append(buf, v.Text...)
		buf = append(buf, ' ')
	}
	if len(buf) > 0 {
		buf = buf[:len(buf)-1]
	}
	return string(buf)
}

// Corpus is an ordered collection of documents of one kind.
type Corpus struct {
	Name string
	Kind Kind
	Docs []Document
	// Columns lists the table attributes in schema order (Table kind only).
	Columns []string

	byID map[string]int
}

// NewText builds a text corpus; snippet i gets ID "<name>:p<i>" unless ids
// is non-nil, in which case ids[i] is used.
func NewText(name string, snippets []string, ids []string) (*Corpus, error) {
	if ids != nil && len(ids) != len(snippets) {
		return nil, fmt.Errorf("corpus %s: %d ids for %d snippets", name, len(ids), len(snippets))
	}
	c := &Corpus{Name: name, Kind: Text, Docs: make([]Document, len(snippets))}
	if ids == nil {
		ids = positionalIDs(name+":p", len(snippets))
	}
	for i, s := range snippets {
		c.Docs[i] = Document{ID: ids[i], Values: []Value{{Text: s}}}
	}
	return c, c.buildIndex()
}

// positionalIDs returns prefix followed by each index in [0, n): the
// IDs of a corpus whose caller supplied none.
func positionalIDs(prefix string, n int) []string {
	ids := make([]string, n)
	buf := []byte(prefix)
	for i := range ids {
		buf = strconv.AppendInt(buf[:len(prefix)], int64(i), 10)
		ids[i] = string(buf)
	}
	return ids
}

// NewTable builds a table corpus from a schema and rows. Row i gets ID
// "<name>:t<i>" unless ids is provided. Rows shorter than the schema are
// padded with empty values; longer rows are an error.
func NewTable(name string, columns []string, rows [][]string, ids []string) (*Corpus, error) {
	if ids != nil && len(ids) != len(rows) {
		return nil, fmt.Errorf("corpus %s: %d ids for %d rows", name, len(ids), len(rows))
	}
	c := &Corpus{Name: name, Kind: Table, Columns: columns, Docs: make([]Document, len(rows))}
	if ids == nil {
		ids = positionalIDs(name+":t", len(rows))
	}
	for i, row := range rows {
		if len(row) > len(columns) {
			return nil, fmt.Errorf("corpus %s: row %d has %d values for %d columns", name, i, len(row), len(columns))
		}
		vals := make([]Value, len(columns))
		for j := range columns {
			v := ""
			if j < len(row) {
				v = row[j]
			}
			vals[j] = Value{Column: columns[j], Text: v}
		}
		c.Docs[i] = Document{ID: ids[i], Values: vals}
	}
	return c, c.buildIndex()
}

// Node is one element of a structured-text corpus: a labelled hierarchy
// node with an optional parent.
type Node struct {
	ID     string
	Text   string
	Parent string
}

// NewStructured builds a structured-text corpus (taxonomy). Parents must
// either be empty or reference a node present in the slice, and every
// parent chain must end at a root: a node may not be its own ancestor.
func NewStructured(name string, nodes []Node) (*Corpus, error) {
	c := &Corpus{Name: name, Kind: Structured, Docs: make([]Document, len(nodes))}
	for i, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("corpus %s: node %d has empty ID", name, i)
		}
		c.Docs[i] = Document{ID: n.ID, Values: []Value{{Text: n.Text}}, Parent: n.Parent}
	}
	if err := c.buildIndex(); err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if n.Parent == "" {
			continue
		}
		if _, ok := c.byID[n.Parent]; !ok {
			return nil, fmt.Errorf("corpus %s: node %s references unknown parent %s", name, n.ID, n.Parent)
		}
	}
	// Walk i climbs from node i until it reaches a root or a node an
	// earlier walk climbed through; stopping on its own trail is a cycle.
	walkOf := make(map[string]int, len(nodes))
	for i, n := range nodes {
		id := n.ID
		for id != "" && walkOf[id] == 0 {
			walkOf[id] = i + 1
			id = c.Docs[c.byID[id]].Parent
		}
		if id != "" && walkOf[id] == i+1 {
			return nil, fmt.Errorf("corpus %s: node %s is its own ancestor", name, id)
		}
	}
	return c, nil
}

func (c *Corpus) buildIndex() error {
	c.byID = make(map[string]int, len(c.Docs))
	for i, d := range c.Docs {
		if _, dup := c.byID[d.ID]; dup {
			return fmt.Errorf("corpus %s: duplicate document ID %s", c.Name, d.ID)
		}
		c.byID[d.ID] = i
	}
	return nil
}

// Append adds one document at the end of the corpus (the delta-ingest
// path). The ID must be new; for tables the values must not exceed the
// schema (shorter documents keep their given values as-is).
func (c *Corpus) Append(d Document) error {
	if d.ID == "" {
		return fmt.Errorf("corpus %s: append with empty document ID", c.Name)
	}
	if _, dup := c.byID[d.ID]; dup {
		return fmt.Errorf("corpus %s: duplicate document ID %s", c.Name, d.ID)
	}
	if c.Kind == Table && len(d.Values) > len(c.Columns) {
		return fmt.Errorf("corpus %s: document %s has %d values for %d columns",
			c.Name, d.ID, len(d.Values), len(c.Columns))
	}
	if c.Kind == Structured && d.Parent != "" {
		if _, ok := c.byID[d.Parent]; !ok {
			return fmt.Errorf("corpus %s: document %s references unknown parent %s", c.Name, d.ID, d.Parent)
		}
	}
	c.byID[d.ID] = len(c.Docs)
	c.Docs = append(c.Docs, d)
	return nil
}

// Remove deletes the document with the given ID, preserving the order
// of the remaining documents, and reports whether it was present.
func (c *Corpus) Remove(id string) bool {
	i, ok := c.byID[id]
	if !ok {
		return false
	}
	c.Docs = append(c.Docs[:i], c.Docs[i+1:]...)
	delete(c.byID, id)
	for j := i; j < len(c.Docs); j++ {
		c.byID[c.Docs[j].ID] = j
	}
	return true
}

// RemoveBatch deletes all given IDs in one compaction pass — removing m
// documents costs O(n + m) instead of the O(m·n) of per-ID Remove calls
// re-indexing the tail each time. Unknown IDs are ignored; the number
// of documents actually removed is returned.
func (c *Corpus) RemoveBatch(ids []string) int {
	victims := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if _, ok := c.byID[id]; ok {
			victims[id] = struct{}{}
		}
	}
	removed := len(victims)
	if removed == 0 {
		return 0
	}
	keep := c.Docs[:0]
	for _, d := range c.Docs {
		if _, dead := victims[d.ID]; !dead {
			keep = append(keep, d)
		}
	}
	c.Docs = keep
	c.byID = make(map[string]int, len(keep))
	for i, d := range keep {
		c.byID[d.ID] = i
	}
	return removed
}

// Clone returns an independent copy of the corpus: the ingest
// clone-mutate-swap path appends to or removes from the clone while the
// original keeps serving. Document values are immutable and shared.
func (c *Corpus) Clone() *Corpus {
	nc := &Corpus{
		Name:    c.Name,
		Kind:    c.Kind,
		Docs:    append([]Document(nil), c.Docs...),
		Columns: c.Columns,
		byID:    make(map[string]int, len(c.byID)),
	}
	for id, i := range c.byID {
		nc.byID[id] = i
	}
	return nc
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.Docs) }

// Doc returns the document with the given ID.
func (c *Corpus) Doc(id string) (Document, bool) {
	i, ok := c.byID[id]
	if !ok {
		return Document{}, false
	}
	return c.Docs[i], true
}

// IDs returns all document IDs in corpus order.
func (c *Corpus) IDs() []string {
	out := make([]string, len(c.Docs))
	for i, d := range c.Docs {
		out[i] = d.ID
	}
	return out
}

// DistinctTokens counts the distinct processed tokens across the corpus.
// Graph creation starts data-node creation from the corpus with the smaller
// distinct-token count (paper §II-B) and filters the other corpus.
func (c *Corpus) DistinctTokens(pre textproc.Preprocessor) int {
	seen := make(map[string]struct{})
	for _, d := range c.Docs {
		for _, v := range d.Values {
			for _, t := range pre.Tokens(v.Text) {
				seen[t] = struct{}{}
			}
		}
	}
	return len(seen)
}

// Paths returns, for a structured corpus, the root-to-node ID path of every
// document (inclusive). For roots the path is just the node itself. Used by
// the taxonomy evaluation measures (paper §V-B). NewStructured rejects
// parent cycles, but Remove and Append can still close one: a walk stops
// before a node it has already passed, so a path on such a cycle starts
// at the node whose parent closes it.
func (c *Corpus) Paths() map[string][]string {
	out := make(map[string][]string, len(c.Docs))
	onWalk := make(map[string]bool)
	var walk func(id string) []string
	walk = func(id string) []string {
		if p, ok := out[id]; ok {
			return p
		}
		d, ok := c.Doc(id)
		if !ok || onWalk[id] {
			return nil
		}
		onWalk[id] = true
		defer delete(onWalk, id)
		var path []string
		if d.Parent != "" {
			parent := walk(d.Parent)
			path = append(append([]string{}, parent...), id)
		} else {
			path = []string{id}
		}
		out[id] = path
		return path
	}
	for _, d := range c.Docs {
		walk(d.ID)
	}
	return out
}
