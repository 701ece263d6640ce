package corpus

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadCorpus feeds one input to every corpus reader: CSV and TSV
// (with and without an ID column), text lines and structured JSON. A
// reader may reject the input, but must not panic, and a corpus it
// accepts must be consistent: every ID resolves through Doc, and Paths
// returns, for every document, a path that ends in its own ID. Seeds are
// in testdata/fuzz/FuzzReadCorpus/, a parent cycle among them.
func FuzzReadCorpus(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		readers := map[string]func(io.Reader) (*Corpus, error){
			"csv":    func(r io.Reader) (*Corpus, error) { return ReadCSV(r, "f", "", ',') },
			"csv id": func(r io.Reader) (*Corpus, error) { return ReadCSV(r, "f", "id", ',') },
			"tsv":    func(r io.Reader) (*Corpus, error) { return ReadCSV(r, "f", "", '\t') },
			"text":   func(r io.Reader) (*Corpus, error) { return ReadTextLines(r, "f") },
			"json":   func(r io.Reader) (*Corpus, error) { return ReadStructuredJSON(r, "f") },
		}
		for name, read := range readers {
			c, err := read(bytes.NewReader(data))
			if err != nil {
				continue
			}
			ids := c.IDs()
			if len(ids) != c.Len() {
				t.Fatalf("%s: %d IDs for %d documents", name, len(ids), c.Len())
			}
			for _, id := range ids {
				if d, ok := c.Doc(id); !ok || d.ID != id {
					t.Fatalf("%s: ID %q does not resolve through Doc", name, id)
				}
			}
			paths := c.Paths()
			for _, id := range ids {
				p := paths[id]
				if len(p) == 0 || p[len(p)-1] != id {
					t.Fatalf("%s: path(%q) = %q, want it to end in its own ID", name, id, p)
				}
			}
		}
	})
}
