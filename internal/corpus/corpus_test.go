package corpus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/tdmatch/tdmatch/internal/textproc"
)

func TestNewText(t *testing.T) {
	c, err := NewText("rev", []string{"first snippet", "second snippet"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Docs[0].ID != "rev:p0" || c.Docs[1].ID != "rev:p1" {
		t.Errorf("auto IDs wrong: %v %v", c.Docs[0].ID, c.Docs[1].ID)
	}
	d, ok := c.Doc("rev:p1")
	if !ok || d.Text() != "second snippet" {
		t.Errorf("Doc lookup failed: %v %v", d, ok)
	}
}

func TestNewTextCustomIDs(t *testing.T) {
	c, err := NewText("rev", []string{"a", "b"}, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Doc("x"); !ok {
		t.Error("custom ID x not found")
	}
	if _, err := NewText("rev", []string{"a"}, []string{"x", "y"}); err == nil {
		t.Error("want error on mismatched ids length")
	}
}

func TestNewTextDuplicateIDs(t *testing.T) {
	if _, err := NewText("rev", []string{"a", "b"}, []string{"x", "x"}); err == nil {
		t.Error("want error on duplicate IDs")
	}
}

func TestNewTable(t *testing.T) {
	c, err := NewTable("movies", []string{"title", "director"},
		[][]string{{"The Sixth Sense", "Shyamalan"}, {"Pulp Fiction", "Tarantino"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Table || c.Len() != 2 {
		t.Fatalf("kind=%v len=%d", c.Kind, c.Len())
	}
	d := c.Docs[0]
	if d.Values[0].Column != "title" || d.Values[0].Text != "The Sixth Sense" {
		t.Errorf("values = %v", d.Values)
	}
	if got := d.Text(); got != "The Sixth Sense Shyamalan" {
		t.Errorf("Text = %q", got)
	}
}

// TestPositionalIDs pins the IDs NewTable and NewText assign when the
// caller supplies none, byte for byte what "%s:t%d" and "%s:p%d" format,
// across the one- to five-digit boundaries.
func TestPositionalIDs(t *testing.T) {
	const n = 12001
	rows := make([][]string, n)
	snippets := make([]string, n)
	for i := range rows {
		rows[i] = []string{"v"}
		snippets[i] = "s"
	}
	table, err := NewTable("movies", []string{"title"}, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := NewText("reviews", snippets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		row         int
		table, text string
	}{
		{0, "movies:t0", "reviews:p0"},
		{9, "movies:t9", "reviews:p9"},
		{10, "movies:t10", "reviews:p10"},
		{12000, "movies:t12000", "reviews:p12000"},
	} {
		if got := table.Docs[tc.row].ID; got != tc.table {
			t.Errorf("table row %d: ID %q, want %q", tc.row, got, tc.table)
		}
		if got := text.Docs[tc.row].ID; got != tc.text {
			t.Errorf("text row %d: ID %q, want %q", tc.row, got, tc.text)
		}
		if _, ok := table.Doc(tc.table); !ok {
			t.Errorf("table lookup of %q failed", tc.table)
		}
	}
}

func TestTableShortRowPadding(t *testing.T) {
	c, err := NewTable("t", []string{"a", "b", "c"}, [][]string{{"1"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs[0].Values) != 3 || c.Docs[0].Values[2].Text != "" {
		t.Errorf("padding failed: %v", c.Docs[0].Values)
	}
	if _, err := NewTable("t", []string{"a"}, [][]string{{"1", "2"}}, nil); err == nil {
		t.Error("want error on too-long row")
	}
}

func TestSerialize(t *testing.T) {
	c, _ := NewTable("m", []string{"title", "director"},
		[][]string{{"The Sixth Sense", "Shyamalan"}}, nil)
	got := c.Docs[0].Serialize()
	want := "[COL] title [VAL] The Sixth Sense [COL] director [VAL] Shyamalan"
	if got != want {
		t.Errorf("Serialize = %q, want %q", got, want)
	}
	text, _ := NewText("p", []string{"hello"}, nil)
	if got := text.Docs[0].Serialize(); got != "[VAL] hello" {
		t.Errorf("text Serialize = %q", got)
	}
}

func TestNewStructured(t *testing.T) {
	nodes := []Node{
		{ID: "root", Text: "Audit"},
		{ID: "a", Text: "Audit programme", Parent: "root"},
		{ID: "b", Text: "ISO 19001", Parent: "a"},
	}
	c, err := NewStructured("tax", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Structured {
		t.Fatalf("kind = %v", c.Kind)
	}
	d, _ := c.Doc("b")
	if d.Parent != "a" {
		t.Errorf("parent = %q", d.Parent)
	}
}

func TestStructuredValidation(t *testing.T) {
	if _, err := NewStructured("t", []Node{{ID: "", Text: "x"}}); err == nil {
		t.Error("want error on empty ID")
	}
	if _, err := NewStructured("t", []Node{{ID: "a", Parent: "ghost"}}); err == nil {
		t.Error("want error on unknown parent")
	}
}

func TestPaths(t *testing.T) {
	nodes := []Node{
		{ID: "r", Text: "root"},
		{ID: "a", Text: "a", Parent: "r"},
		{ID: "b", Text: "b", Parent: "a"},
		{ID: "c", Text: "c", Parent: "b"},
		{ID: "x", Text: "x", Parent: "r"},
	}
	c, err := NewStructured("tax", nodes)
	if err != nil {
		t.Fatal(err)
	}
	paths := c.Paths()
	if !reflect.DeepEqual(paths["c"], []string{"r", "a", "b", "c"}) {
		t.Errorf("path(c) = %v", paths["c"])
	}
	if !reflect.DeepEqual(paths["r"], []string{"r"}) {
		t.Errorf("path(r) = %v", paths["r"])
	}
	if !reflect.DeepEqual(paths["x"], []string{"r", "x"}) {
		t.Errorf("path(x) = %v", paths["x"])
	}
}

func TestParentCycles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []Node
		cycle []string
	}{
		{"two-cycle", []Node{{ID: "a", Parent: "b"}, {ID: "b", Parent: "a"}}, []string{"a", "b"}},
		{"self-parent", []Node{{ID: "r"}, {ID: "a", Parent: "a"}}, []string{"a"}},
		{"three-cycle beside a tree", []Node{{ID: "r"}, {ID: "x", Parent: "r"}, {ID: "a", Parent: "c"},
			{ID: "b", Parent: "a"}, {ID: "c", Parent: "b"}}, []string{"a", "b", "c"}},
	} {
		_, err := NewStructured("tax", tc.nodes)
		named := false
		for _, id := range tc.cycle {
			named = named || err != nil && strings.Contains(err.Error(), "node "+id+" is its own ancestor")
		}
		if !named {
			t.Errorf("%s: err = %v, want one naming a node of %v", tc.name, err, tc.cycle)
		}
	}

	// Remove leaves a's parent dangling; re-appending r under a closes
	// a -> r -> a, which Paths must walk without looping.
	c, err := NewStructured("tax", []Node{{ID: "r"}, {ID: "a", Parent: "r"}, {ID: "b", Parent: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	c.Remove("r")
	if err := c.Append(Document{ID: "r", Parent: "a"}); err != nil {
		t.Fatal(err)
	}
	paths := c.Paths()
	for _, id := range c.IDs() {
		p := paths[id]
		if len(p) == 0 || p[len(p)-1] != id {
			t.Errorf("path(%s) = %v, want it to end in %s", id, p, id)
		}
	}
}

func TestDistinctTokens(t *testing.T) {
	c, _ := NewText("p", []string{"the movie movie", "a great movie"}, nil)
	pre := textproc.Preprocessor{MaxNGram: 1} // no stop removal, no stemming
	// tokens: the, movie, a, great → 4 distinct
	if got := c.DistinctTokens(pre); got != 4 {
		t.Errorf("DistinctTokens = %d, want 4", got)
	}
	pre2 := textproc.DefaultPreprocessor()
	// stop words removed: movie(→movi), great → 2
	if got := c.DistinctTokens(pre2); got != 2 {
		t.Errorf("DistinctTokens = %d, want 2", got)
	}
}

func TestIDs(t *testing.T) {
	c, _ := NewText("p", []string{"a", "b", "c"}, nil)
	if got := c.IDs(); !reflect.DeepEqual(got, []string{"p:p0", "p:p1", "p:p2"}) {
		t.Errorf("IDs = %v", got)
	}
}

func TestReadCSV(t *testing.T) {
	data := "title,director\nThe Sixth Sense,Shyamalan\nPulp Fiction,Tarantino\n"
	c, err := ReadCSV(strings.NewReader(data), "movies", "", ',')
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Columns[1] != "director" {
		t.Fatalf("csv corpus wrong: %+v", c)
	}
}

func TestReadCSVWithIDColumn(t *testing.T) {
	data := "id,title\nm1,The Sixth Sense\nm2,Pulp Fiction\n"
	c, err := ReadCSV(strings.NewReader(data), "movies", "id", ',')
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Doc("m2"); !ok {
		t.Error("id column not used for document IDs")
	}
}

func TestReadCSVMissingIDColumn(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n"), "x", "nope", ','); err == nil {
		t.Error("want error for missing id column")
	}
}

func TestReadTextLines(t *testing.T) {
	c, err := ReadTextLines(strings.NewReader("first\n\n  \nsecond\n"), "txt")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (blank lines skipped)", c.Len())
	}
}

func TestReadStructuredJSON(t *testing.T) {
	data := `[{"id":"r","text":"root"},{"id":"a","text":"child","parent":"r"}]`
	c, err := ReadStructuredJSON(strings.NewReader(data), "tax")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := c.Doc("a")
	if !ok || d.Parent != "r" {
		t.Errorf("json corpus wrong: %+v ok=%v", d, ok)
	}
}

func TestKindString(t *testing.T) {
	if Text.String() != "text" || Table.String() != "table" || Structured.String() != "structured" {
		t.Error("Kind.String labels wrong")
	}
}

func TestAppendRemoveClone(t *testing.T) {
	c, err := NewText("c", []string{"one", "two", "three"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(Document{ID: "c:p3", Values: []Value{{Text: "four"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(Document{ID: "c:p0"}); err == nil {
		t.Error("duplicate append must fail")
	}
	if err := c.Append(Document{}); err == nil {
		t.Error("empty-ID append must fail")
	}
	clone := c.Clone()
	if !c.Remove("c:p1") {
		t.Fatal("remove of live doc failed")
	}
	if c.Remove("c:p1") {
		t.Error("double remove reported success")
	}
	// Order and index survive the removal.
	wantIDs := []string{"c:p0", "c:p2", "c:p3"}
	gotIDs := c.IDs()
	for i, id := range wantIDs {
		if gotIDs[i] != id {
			t.Fatalf("IDs after remove = %v", gotIDs)
		}
		if d, ok := c.Doc(id); !ok || d.ID != id {
			t.Fatalf("Doc(%s) broken after remove", id)
		}
	}
	// The clone kept the pre-removal state.
	if clone.Len() != 4 {
		t.Errorf("clone length = %d, want 4", clone.Len())
	}
	if _, ok := clone.Doc("c:p1"); !ok {
		t.Error("removal leaked into the clone")
	}
}

func TestRemoveBatchMatchesPerIDRemove(t *testing.T) {
	ids := make([]string, 50)
	texts := make([]string, 50)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%02d", i)
		texts[i] = fmt.Sprintf("text %d", i)
	}
	batch, err := NewText("c", texts, ids)
	if err != nil {
		t.Fatal(err)
	}
	serial := batch.Clone()
	victims := []string{"d03", "d07", "d07", "d49", "nosuch", "d00"}
	if got := batch.RemoveBatch(victims); got != 4 {
		t.Fatalf("RemoveBatch = %d, want 4", got)
	}
	for _, id := range victims {
		serial.Remove(id)
	}
	if !reflect.DeepEqual(batch.IDs(), serial.IDs()) {
		t.Fatalf("batch removal diverged:\nbatch:  %v\nserial: %v", batch.IDs(), serial.IDs())
	}
	for _, id := range batch.IDs() {
		if d, ok := batch.Doc(id); !ok || d.ID != id {
			t.Fatalf("index broken for %s after RemoveBatch", id)
		}
	}
	if batch.RemoveBatch([]string{"nosuch"}) != 0 {
		t.Error("RemoveBatch of unknowns must remove nothing")
	}
}
