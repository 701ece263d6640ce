package graph

import (
	"reflect"
	"sort"
	"testing"

	"github.com/tdmatch/tdmatch/internal/corpus"
)

// buildFixture constructs a small two-corpus graph for the delta tests.
func buildFixture(t *testing.T, cfg BuildConfig) (*Result, *corpus.Corpus, *corpus.Corpus) {
	t.Helper()
	table, err := corpus.NewTable("movies", []string{"title", "director"},
		[][]string{
			{"The Sixth Sense", "Shyamalan"},
			{"Pulp Fiction", "Tarantino"},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := corpus.NewText("reviews", []string{
		"Shyamalan made a tense thriller",
		"a Tarantino movie with sharp dialogue",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(table, text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, table, text
}

// neighborsSorted returns the sorted live neighbor list of a node.
func neighborsSorted(g *Graph, id NodeID) []NodeID {
	out := append([]NodeID(nil), g.Neighbors(id)...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPatchEdgesMatchesThawedAddEdge pins the thaw-or-patch contract:
// patching edges into a frozen CSR must leave exactly the adjacency a
// thawed AddEdge sequence produces, and must not thaw the graph.
func TestPatchEdgesMatchesThawedAddEdge(t *testing.T) {
	cfg := BuildConfig{Filter: FilterNone, ConnectMetadata: true}
	res, _, _ := buildFixture(t, cfg)
	frozen := res.Graph
	frozen.Freeze()
	ref, _, _ := buildFixture(t, cfg)
	thawed := ref.Graph

	// New nodes against the frozen graph must not thaw it.
	fa, err := frozen.AddMeta("movies:new", Tuple, First)
	if err != nil {
		t.Fatal(err)
	}
	if !frozen.Frozen() {
		t.Fatal("AddMeta thawed the frozen graph")
	}
	fd := frozen.EnsureData("brandnewterm")
	ta, _ := thawed.AddMeta("movies:new", Tuple, First)
	td := thawed.EnsureData("brandnewterm")
	if fa != ta || fd != td {
		t.Fatalf("node ids diverge: frozen (%d,%d) vs thawed (%d,%d)", fa, fd, ta, td)
	}

	old, _ := frozen.DataNode("tarantino")
	pairs := [][2]NodeID{
		{fa, fd}, {fa, old}, {fa, fd}, // duplicate in batch
		{fd, fd},                      // self loop
		{old, fa},                     // duplicate reversed
	}
	frozen.PatchEdges(pairs)
	if !frozen.Frozen() {
		t.Fatal("PatchEdges thawed the graph")
	}
	for _, p := range pairs {
		thawed.AddEdge(p[0], p[1])
	}

	if frozen.NumEdges() != thawed.NumEdges() || frozen.NumNodes() != thawed.NumNodes() {
		t.Fatalf("sizes diverge: frozen %d/%d vs thawed %d/%d",
			frozen.NumNodes(), frozen.NumEdges(), thawed.NumNodes(), thawed.NumEdges())
	}
	for i := 0; i < frozen.Cap(); i++ {
		id := NodeID(i)
		if !reflect.DeepEqual(neighborsSorted(frozen, id), neighborsSorted(thawed, id)) {
			t.Fatalf("adjacency diverges at node %d (%s): %v vs %v", i, frozen.Label(id),
				neighborsSorted(frozen, id), neighborsSorted(thawed, id))
		}
	}
}

// TestRemoveNodesFrozenMatchesThawed pins the frozen removal path
// against the established thawed mark-and-compact.
func TestRemoveNodesFrozenMatchesThawed(t *testing.T) {
	cfg := BuildConfig{Filter: FilterNone, ConnectMetadata: true}
	res, _, _ := buildFixture(t, cfg)
	frozen := res.Graph
	frozen.Freeze()
	ref, _, _ := buildFixture(t, cfg)
	thawed := ref.Graph

	victims := []NodeID{res.DocNode["movies:t0"], res.DocNode["reviews:p1"]}
	frozen.RemoveNodes(victims)
	if !frozen.Frozen() {
		t.Fatal("frozen RemoveNodes thawed the graph")
	}
	thawed.RemoveNodes(victims)

	if frozen.NumNodes() != thawed.NumNodes() || frozen.NumEdges() != thawed.NumEdges() {
		t.Fatalf("sizes diverge: %d/%d vs %d/%d",
			frozen.NumNodes(), frozen.NumEdges(), thawed.NumNodes(), thawed.NumEdges())
	}
	for i := 0; i < frozen.Cap(); i++ {
		id := NodeID(i)
		if frozen.Removed(id) != thawed.Removed(id) {
			t.Fatalf("removed flag diverges at node %d", i)
		}
		if frozen.Removed(id) {
			continue
		}
		if !reflect.DeepEqual(neighborsSorted(frozen, id), neighborsSorted(thawed, id)) {
			t.Fatalf("adjacency diverges at node %d: %v vs %v", i,
				neighborsSorted(frozen, id), neighborsSorted(thawed, id))
		}
	}
	if _, ok := frozen.MetaNode("movies:t0"); ok {
		t.Error("removed metadata node still resolvable")
	}
}

// TestInsertDocsWiresTermsAndAttributes checks that a delta insert into
// a frozen graph connects the new tuple to its term and attribute nodes
// exactly like the full build would, and reports the affected set.
func TestInsertDocsWiresTermsAndAttributes(t *testing.T) {
	res, table, _ := buildFixture(t, BuildConfig{Filter: FilterNone, ConnectMetadata: true})
	g := res.Graph
	g.Freeze()
	doc := corpus.Document{ID: "movies:t9", Values: []corpus.Value{
		{Column: "title", Text: "Jackie Brown"},
		{Column: "director", Text: "Tarantino"},
	}}
	if err := table.Append(doc); err != nil {
		t.Fatal(err)
	}
	d, err := res.InsertDocs(table, []corpus.Document{doc}, First, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DocNodes) != 1 {
		t.Fatalf("DocNodes = %v", d.DocNodes)
	}
	meta := d.DocNodes[0]
	if res.DocNode["movies:t9"] != meta {
		t.Error("DocNode map not updated")
	}
	// The known term reuses the existing node; the unseen ones are new.
	old, ok := g.DataNode("tarantino")
	if !ok {
		t.Fatal("existing term node lost")
	}
	if !g.HasEdge(meta, old) {
		t.Error("new doc not connected to existing term node")
	}
	jackie, ok := g.DataNode("jacki")
	if !ok {
		// Stemming may keep the token as-is; accept either surface form.
		jackie, ok = g.DataNode("jackie")
	}
	if !ok || !g.HasEdge(meta, jackie) {
		t.Error("new doc not connected to newly created term node")
	}
	attr, ok := g.MetaNode("movies/director")
	if !ok || !g.HasEdge(attr, old) {
		t.Error("attribute edge missing")
	}
	// Affected covers the new nodes plus the touched existing ones.
	affected := map[NodeID]struct{}{}
	for _, id := range d.Affected {
		affected[id] = struct{}{}
	}
	for _, want := range []NodeID{meta, old, attr} {
		if _, ok := affected[want]; !ok {
			t.Errorf("affected set misses node %d (%s)", want, g.Label(want))
		}
	}
	// Duplicate insert is rejected.
	if _, err := res.InsertDocs(table, []corpus.Document{doc}, First, false); err == nil {
		t.Error("duplicate insert must fail")
	}
}

// TestInsertDocsRespectsFiltering: with createTerms false (the
// non-vocabulary side under intersect filtering), unknown terms are
// dropped and counted instead of creating nodes.
func TestInsertDocsRespectsFiltering(t *testing.T) {
	res, _, text := buildFixture(t, BuildConfig{Filter: FilterIntersect})
	res.Graph.Freeze()
	nodesBefore := res.Graph.NumNodes()
	doc := corpus.Document{ID: "reviews:p9", Values: []corpus.Value{
		{Text: "Tarantino zzzunknownterm qqqanother"},
	}}
	if err := text.Append(doc); err != nil {
		t.Fatal(err)
	}
	d, err := res.InsertDocs(text, []corpus.Document{doc}, Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.FilteredTerms == 0 {
		t.Error("unknown terms on the filtered side must be counted as dropped")
	}
	if got := res.Graph.NumNodes(); got != nodesBefore+1 {
		t.Errorf("filtered insert created %d nodes beyond the metadata node", got-nodesBefore-1)
	}
}

// TestInsertDocsLearnsMergedTerms: a new surface form that an existing
// merger canonicalizes must connect to the existing merged node instead
// of minting a duplicate.
func TestInsertDocsLearnsMergedTerms(t *testing.T) {
	table, err := corpus.NewTable("t", []string{"rating"},
		[][]string{{"4.1"}, {"4.3"}, {"8.9"}, {"9.2"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := corpus.NewText("s", []string{"rated 4.2 overall"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(table, text, BuildConfig{Filter: FilterNone, Bucketing: true, BucketWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	res.Graph.Freeze()
	low, ok := res.Graph.DataNode(res.Canon.Canonical("4.1"))
	if !ok {
		t.Fatal("bucketed node for 4.1 missing")
	}
	doc := corpus.Document{ID: "s:new", Values: []corpus.Value{{Text: "scored 4.4 here"}}}
	if err := text.Append(doc); err != nil {
		t.Fatal(err)
	}
	d, err := res.InsertDocs(text, []corpus.Document{doc}, Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Canon.Canonical("4.4"); got != res.Canon.Canonical("4.1") {
		t.Errorf("new numeric term canonicalizes to %q, want the 4.1 bucket %q", got, res.Canon.Canonical("4.1"))
	}
	if !res.Graph.HasEdge(d.DocNodes[0], low) {
		t.Error("new doc not connected to the existing bucket node")
	}
}

// TestRemoveDocsKeepsTermNodes: removing a document deletes its
// metadata node but keeps (now possibly isolated) data nodes for future
// re-ingest.
func TestRemoveDocsKeepsTermNodes(t *testing.T) {
	res, _, _ := buildFixture(t, BuildConfig{Filter: FilterNone})
	res.Graph.Freeze()
	termsBefore := len(res.Graph.DataNodes())
	present := res.RemoveDocs([]string{"reviews:p0", "nosuch:doc"})
	if len(present) != 1 || present[0] != "reviews:p0" {
		t.Fatalf("present = %v", present)
	}
	if _, ok := res.DocNode["reviews:p0"]; ok {
		t.Error("DocNode entry not deleted")
	}
	if got := len(res.Graph.DataNodes()); got != termsBefore {
		t.Errorf("data nodes changed: %d -> %d", termsBefore, got)
	}
	if !res.Graph.Frozen() {
		t.Error("RemoveDocs thawed the graph")
	}
}
