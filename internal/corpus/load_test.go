package corpus

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadDispatchCSV(t *testing.T) {
	path := writeTemp(t, "movies.csv", "title,director\nPulp Fiction,Tarantino\n")
	c, err := Load(path, "movies")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Table || c.Len() != 1 {
		t.Errorf("kind=%v len=%d", c.Kind, c.Len())
	}
}

func TestLoadDispatchTSV(t *testing.T) {
	path := writeTemp(t, "movies.tsv", "title\tdirector\nPulp Fiction\tTarantino\n")
	c, err := Load(path, "movies")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Table || c.Docs[0].Values[1].Text != "Tarantino" {
		t.Errorf("tsv parse wrong: %+v", c.Docs[0])
	}
}

func TestLoadDispatchJSON(t *testing.T) {
	path := writeTemp(t, "tax.json", `[{"id":"r","text":"root"},{"id":"a","text":"leaf","parent":"r"}]`)
	c, err := Load(path, "tax")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Structured || c.Len() != 2 {
		t.Errorf("kind=%v len=%d", c.Kind, c.Len())
	}
}

func TestLoadDispatchText(t *testing.T) {
	path := writeTemp(t, "notes.txt", "first doc\nsecond doc\n")
	c, err := Load(path, "notes")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Text || c.Len() != 2 {
		t.Errorf("kind=%v len=%d", c.Kind, c.Len())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.csv"), "x"); err == nil {
		t.Error("want error for missing file")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json"), "x"); err == nil {
		t.Error("want error for missing json")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.txt"), "x"); err == nil {
		t.Error("want error for missing text")
	}
}

func TestLoadBadJSON(t *testing.T) {
	path := writeTemp(t, "bad.json", `{"not": "an array"}`)
	if _, err := Load(path, "x"); err == nil {
		t.Error("want error for non-array json")
	}
}

func TestLoadCSVFromDisk(t *testing.T) {
	path := writeTemp(t, "with_id.csv", "id,name\nx1,alpha\nx2,beta\n")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ReadCSV(f, "t", "id", ',')
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Doc("x2"); !ok {
		t.Error("id column ignored")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.csv"), "t"); err == nil {
		t.Error("want error for missing file")
	}
}

func TestLoadTextLinesFromDisk(t *testing.T) {
	path := writeTemp(t, "docs.txt", "a\n\nb\n")
	c, err := Load(path, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestLoadStructuredJSONFromDisk(t *testing.T) {
	path := writeTemp(t, "tax.json", `[{"id":"r","text":"root"}]`)
	c, err := Load(path, "tax")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "m.json"), "tax"); err == nil {
		t.Error("want error for missing file")
	}
}
