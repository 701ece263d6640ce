package graph

import (
	"strings"
	"testing"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/textproc"
)

func movieFixture(t *testing.T) (*corpus.Corpus, *corpus.Corpus) {
	t.Helper()
	table, err := corpus.NewTable("movies",
		[]string{"title", "director", "star", "rating", "genre"},
		[][]string{
			{"The Sixth Sense", "Shyamalan", "Bruce Willis", "PG", "Thriller"},
			{"Pulp Fiction", "Tarantino", "Bruce Willis", "R", "Drama"},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := corpus.NewText("reviews", []string{
		"A comedy by Tarantino starring Willis",
		"Willis sees dead people in this thriller",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return table, text
}

func TestBuildCreatesMetadataForBothCorpora(t *testing.T) {
	table, text := movieFixture(t)
	res, err := Build(table, text, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if len(g.MetadataNodes(First)) != 2 {
		t.Errorf("first-side metadata = %d, want 2 tuples", len(g.MetadataNodes(First)))
	}
	if len(g.MetadataNodes(Second)) != 2 {
		t.Errorf("second-side metadata = %d, want 2 snippets", len(g.MetadataNodes(Second)))
	}
	// Attribute nodes exist per column.
	if len(res.AttrNode) != 5 {
		t.Errorf("attr nodes = %d, want 5", len(res.AttrNode))
	}
	for _, doc := range []string{"movies:t0", "movies:t1", "reviews:p0", "reviews:p1"} {
		if _, ok := res.DocNode[doc]; !ok {
			t.Errorf("missing DocNode for %s", doc)
		}
	}
}

func TestBuildTermEdges(t *testing.T) {
	table, text := movieFixture(t)
	res, err := Build(table, text, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	// "tarantino" appears in tuple t1 and review p0; both metadata nodes
	// must connect to the same data node.
	tn, ok := g.DataNode("tarantino")
	if !ok {
		t.Fatal("no data node for tarantino")
	}
	if !g.HasEdge(res.DocNode["movies:t1"], tn) {
		t.Error("tuple t1 not connected to tarantino")
	}
	if !g.HasEdge(res.DocNode["reviews:p0"], tn) {
		t.Error("review p0 not connected to tarantino")
	}
	// The director attribute node connects to tarantino too (2-hop paths
	// across the active domain, §II).
	attr := res.AttrNode["movies/director"]
	if !g.HasEdge(attr, tn) {
		t.Error("director attribute not connected to tarantino")
	}
}

func TestBuildIntersectFiltering(t *testing.T) {
	table, text := movieFixture(t)
	res, err := Build(table, text, BuildConfig{Filter: FilterIntersect})
	if err != nil {
		t.Fatal(err)
	}
	// The table has fewer distinct tokens than... actually verify direction
	// by behavior: terms exclusive to the larger-vocab corpus are filtered.
	// "dead" and "people" appear only in reviews.
	preA := textproc.DefaultPreprocessor()
	tableTokens := table.DistinctTokens(preA)
	textTokens := text.DistinctTokens(preA)
	g := res.Graph
	if tableTokens <= textTokens {
		if _, ok := g.DataNode("dead"); ok {
			t.Error("review-only term 'dead' must be filtered out")
		}
	}
	if res.FilteredTerms == 0 {
		t.Error("expected some filtered terms")
	}
	// Common term survives.
	if _, ok := g.DataNode("tarantino"); !ok {
		t.Error("shared term tarantino missing")
	}
}

func TestBuildFilterNoneKeepsAll(t *testing.T) {
	table, text := movieFixture(t)
	res, err := Build(table, text, BuildConfig{Filter: FilterNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Graph.DataNode("dead"); !ok {
		t.Error("FilterNone must keep review-only terms")
	}
	if res.FilteredTerms != 0 {
		t.Errorf("FilteredTerms = %d, want 0", res.FilteredTerms)
	}
}

func TestBuildTFIDF(t *testing.T) {
	table, text := movieFixture(t)
	res, err := Build(table, text, BuildConfig{Filter: FilterTFIDF, TFIDFTopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(table, text, BuildConfig{Filter: FilterNone})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumNodes() >= full.Graph.NumNodes() {
		t.Errorf("TFIDF top-2 graph (%d nodes) not smaller than unfiltered (%d)",
			res.Graph.NumNodes(), full.Graph.NumNodes())
	}
}

func TestBuildStructuredParentEdges(t *testing.T) {
	tax, err := corpus.NewStructured("tax", []corpus.Node{
		{ID: "tax:root", Text: "Audit"},
		{ID: "tax:prog", Text: "Audit programme", Parent: "tax:root"},
		{ID: "tax:iso", Text: "ISO 19001", Parent: "tax:prog"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.NewText("docs", []string{"the audit programme requires planning"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(tax, docs, BuildConfig{ConnectMetadata: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if !g.HasEdge(res.DocNode["tax:prog"], res.DocNode["tax:root"]) {
		t.Error("missing parent edge root-prog")
	}
	if !g.HasEdge(res.DocNode["tax:iso"], res.DocNode["tax:prog"]) {
		t.Error("missing parent edge prog-iso")
	}

	// Ablation: disabling metadata edges removes them.
	res2, err := Build(tax, docs, BuildConfig{ConnectMetadata: true, DisableMetadataEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Graph.HasEdge(res2.DocNode["tax:prog"], res2.DocNode["tax:root"]) {
		t.Error("metadata edge present despite ablation")
	}
}

func TestBuildWithBucketing(t *testing.T) {
	tbl, err := corpus.NewTable("cases", []string{"country", "deaths"},
		[][]string{{"france", "101"}, {"italy", "103"}, {"spain", "900"}, {"us", "905"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := corpus.NewText("claims", []string{"deaths in france reached 102"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(tbl, txt, BuildConfig{Filter: FilterNone, Bucketing: true, BucketWidth: 10})
	if err != nil {
		t.Fatal(err)
	}
	// 101, 102 and 103 fall in one bucket: claim and tuples connect.
	c101 := res.Canon.Canonical("101")
	c102 := res.Canon.Canonical("102")
	if c101 != c102 {
		t.Errorf("101 and 102 in different buckets: %q %q", c101, c102)
	}
	if c900 := res.Canon.Canonical("900"); c900 == c101 {
		t.Error("900 must not share a bucket with 101")
	}
	if _, ok := res.Graph.DataNode(c101); !ok {
		t.Error("bucket node missing from graph")
	}
}

type staticMerger map[string]string

func (m staticMerger) Merge(terms []string) map[string]string {
	out := map[string]string{}
	for _, t := range terms {
		if to, ok := m[t]; ok {
			out[t] = to
		}
	}
	return out
}

func TestBuildWithSynonymMerger(t *testing.T) {
	table, text := movieFixture(t)
	merger := staticMerger{"willi": "bruce willi"} // stemmed forms
	res, err := Build(table, text, BuildConfig{Filter: FilterNone, Mergers: []Merger{merger}})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	id, ok := g.DataNode("bruce willi")
	if !ok {
		t.Fatal("no canonical node for bruce willi")
	}
	// The review mentions just "Willis"; after merging, review p0 connects
	// to the canonical node.
	if !g.HasEdge(res.DocNode["reviews:p0"], id) {
		t.Error("merged node not connected to review")
	}
	if _, exists := g.DataNode("willi"); exists {
		t.Error("merged term still has its own node")
	}
}

func TestCanonicalizerChains(t *testing.T) {
	terms := []string{"a", "b", "c"}
	m1 := staticMerger{"a": "b"}
	m2 := staticMerger{"b": "c"}
	c := NewCanonicalizer(terms, m1, m2)
	if got := c.Canonical("a"); got != "c" {
		t.Errorf("Canonical(a) = %q, want c (chained)", got)
	}
	if got := c.Canonical("b"); got != "c" {
		t.Errorf("Canonical(b) = %q, want c", got)
	}
	if got := c.Canonical("zz"); got != "zz" {
		t.Errorf("Canonical(zz) = %q, want identity", got)
	}
	if c.Mappings() != 2 {
		t.Errorf("Mappings = %d, want 2", c.Mappings())
	}
	var nilC *Canonicalizer
	if nilC.Canonical("x") != "x" || nilC.Mappings() != 0 {
		t.Error("nil canonicalizer must be identity")
	}
}

func TestBuildNilCorpus(t *testing.T) {
	if _, err := Build(nil, nil, BuildConfig{}); err == nil {
		t.Error("want error for nil corpora")
	}
}

func TestFilterModeString(t *testing.T) {
	for _, m := range []FilterMode{FilterIntersect, FilterNone, FilterTFIDF} {
		if strings.Contains(m.String(), "filter(") {
			t.Errorf("missing name for mode %d", m)
		}
	}
}
