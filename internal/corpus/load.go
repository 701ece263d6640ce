package corpus

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// LoadCSV reads a table corpus from a CSV (or TSV) file. The first record
// is the header. When idColumn is non-empty that column provides document
// IDs (and is still kept as a value); otherwise row numbers are used.
func LoadCSV(path, name, idColumn string, comma rune) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, name, idColumn, comma)
}

// ReadCSV is LoadCSV over an io.Reader.
func ReadCSV(r io.Reader, name, idColumn string, comma rune) (*Corpus, error) {
	cr := csv.NewReader(r)
	if comma != 0 {
		cr.Comma = comma
	}
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("corpus %s: reading header: %w", name, err)
	}
	idIdx := -1
	if idColumn != "" {
		for i, h := range header {
			if h == idColumn {
				idIdx = i
				break
			}
		}
		if idIdx < 0 {
			return nil, fmt.Errorf("corpus %s: id column %q not in header %v", name, idColumn, header)
		}
	}
	var rows [][]string
	var ids []string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", name, err)
		}
		if idIdx >= 0 && idIdx < len(rec) {
			ids = append(ids, rec[idIdx])
		}
		rows = append(rows, rec)
	}
	if idIdx >= 0 {
		return NewTable(name, header, rows, ids)
	}
	return NewTable(name, header, rows, nil)
}

// LoadTextLines reads a text corpus with one document per non-empty line.
func LoadTextLines(path, name string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTextLines(f, name)
}

// ReadTextLines is LoadTextLines over an io.Reader.
func ReadTextLines(r io.Reader, name string) (*Corpus, error) {
	var snippets []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			snippets = append(snippets, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus %s: %w", name, err)
	}
	return NewText(name, snippets, nil)
}

// jsonNode mirrors Node for the structured-corpus JSON format:
// an array of {"id": ..., "text": ..., "parent": ...} objects.
type jsonNode struct {
	ID     string `json:"id"`
	Text   string `json:"text"`
	Parent string `json:"parent,omitempty"`
}

// LoadStructuredJSON reads a taxonomy corpus from a JSON array of nodes.
func LoadStructuredJSON(path, name string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStructuredJSON(f, name)
}

// ReadStructuredJSON is LoadStructuredJSON over an io.Reader.
func ReadStructuredJSON(r io.Reader, name string) (*Corpus, error) {
	var raw []jsonNode
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("corpus %s: %w", name, err)
	}
	nodes := make([]Node, len(raw))
	for i, n := range raw {
		nodes[i] = Node{ID: n.ID, Text: n.Text, Parent: n.Parent}
	}
	return NewStructured(name, nodes)
}

// Load dispatches on the file extension: .csv and .tsv become tables,
// .json becomes a structured corpus, anything else is read as text lines.
func Load(path, name string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, path, name)
}

// Read is Load over a reader holding the contents of the file at path;
// only path's extension is used, to pick the format.
func Read(r io.Reader, path, name string) (*Corpus, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return ReadCSV(r, name, "", ',')
	case ".tsv":
		return ReadCSV(r, name, "", '\t')
	case ".json":
		return ReadStructuredJSON(r, name)
	default:
		return ReadTextLines(r, name)
	}
}
