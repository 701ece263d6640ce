package graph

import (
	"fmt"
	"math"
	"sort"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/textproc"
)

// FilterMode selects how second-corpus terms are filtered during graph
// creation (§II-B and Fig. 9).
type FilterMode uint8

const (
	// FilterIntersect (the paper's technique) creates data nodes from the
	// corpus with fewer distinct tokens first and keeps from the other
	// corpus only terms already in the graph.
	FilterIntersect FilterMode = iota
	// FilterNone creates data nodes for all terms of both corpora
	// ("Normal" in Fig. 9).
	FilterNone
	// FilterTFIDF keeps the top-k TF-IDF tokens of every document before
	// term generation (the baseline technique of Fig. 9).
	FilterTFIDF
)

// String returns the Fig. 9 series name for the mode.
func (m FilterMode) String() string {
	switch m {
	case FilterIntersect:
		return "intersect"
	case FilterNone:
		return "normal"
	case FilterTFIDF:
		return "tfidf"
	}
	return fmt.Sprintf("filter(%d)", uint8(m))
}

// BuildConfig parametrizes Algorithm 1 plus the §II-C/§II-D improvements.
type BuildConfig struct {
	// Pre is the pre-processing applied to every value (stop words,
	// stemming, MaxNGram terms). Zero value => DefaultPreprocessor.
	Pre textproc.Preprocessor
	// Filter selects the data-node filtering technique.
	Filter FilterMode
	// TFIDFTopK is the tokens kept per document under FilterTFIDF
	// (paper sweeps k = 3, 5, 10, 20).
	TFIDFTopK int
	// ConnectMetadata adds edges between hierarchically related metadata
	// nodes of a structured corpus (§II-A). Default true via Build.
	ConnectMetadata bool
	// DisableMetadataEdges turns ConnectMetadata off (used by the §V-F2
	// ablation); separated so the zero config keeps the paper default.
	DisableMetadataEdges bool
	// Bucketing enables Freedman–Diaconis numeric bucketing (§II-C).
	Bucketing bool
	// BucketWidth, when > 0, overrides the Freedman–Diaconis width.
	BucketWidth float64
	// Mergers are applied to the term universe to merge synonym /
	// acronym / typo data nodes (§II-C).
	Mergers []Merger
}

// Result carries the construction artefacts needed by later stages, and
// is the handle the delta path (InsertDocs/RemoveDocs) mutates when
// single documents are ingested into or removed from a built graph.
type Result struct {
	Graph *Graph
	// DocNode maps every document ID to its metadata node.
	DocNode map[string]NodeID
	// AttrNode maps "<corpus>/<column>" to the attribute node.
	AttrNode map[string]NodeID
	// Canon resolves terms to their canonical (merged) form.
	Canon *Canonicalizer
	// Mergers is the effective merger chain (including the numeric
	// Bucketer Build constructs under cfg.Bucketing), retained so the
	// delta path canonicalizes unseen terms exactly like the full build.
	Mergers []Merger
	// Pre is the effective preprocessor after defaulting, retained so
	// delta-ingested documents tokenize identically.
	Pre textproc.Preprocessor
	// PrimaryFirst reports whether the first corpus defined the term
	// vocabulary (always true outside FilterIntersect); the delta path
	// uses it to decide which side may create new data nodes.
	PrimaryFirst bool
	// ConnectMeta records whether hierarchical metadata edges were
	// enabled (ConnectMetadata minus the DisableMetadataEdges ablation),
	// so delta-ingested taxonomy documents wire parent edges exactly
	// when the full build would.
	ConnectMeta bool
	// FilteredTerms counts second-corpus terms dropped by filtering.
	FilteredTerms int
	// TFIDFTopK, when > 0, records that the build ran under FilterTFIDF
	// with this per-document token budget; DF and DFDocs then hold each
	// side's document-frequency statistics (indexed Side-1) so the delta
	// path filters ingested documents with the same scoring. Removals do
	// not decrement DF — the statistics drift slightly until the next
	// full rebuild, like any IDF corpus snapshot.
	TFIDFTopK int
	DF        [2]map[string]int
	DFDocs    [2]int
}

// docTerms holds the processed representation of one document.
type docTerms struct {
	id     string
	parent string
	// perValue holds the term list per value, aligned with columns for
	// tables (so terms connect to their attribute node).
	perValue [][]string
	columns  []string
}

func processCorpus(c *corpus.Corpus, pre textproc.Preprocessor, tfidfTopK int) ([]docTerms, map[string]int) {
	out := make([]docTerms, len(c.Docs))
	var df map[string]int
	var tokensPerDoc [][]string
	if tfidfTopK > 0 {
		// Document frequency over processed single tokens.
		df = make(map[string]int)
		tokensPerDoc = make([][]string, len(c.Docs))
		for i, d := range c.Docs {
			var toks []string
			for _, v := range d.Values {
				toks = append(toks, pre.Tokens(v.Text)...)
			}
			tokensPerDoc[i] = toks
			seen := map[string]struct{}{}
			for _, t := range toks {
				if _, ok := seen[t]; !ok {
					seen[t] = struct{}{}
					df[t]++
				}
			}
		}
	}
	n := len(c.Docs)
	for i, d := range c.Docs {
		var keep map[string]struct{}
		if tfidfTopK > 0 {
			keep = topTFIDF(tokensPerDoc[i], df, n, tfidfTopK)
		}
		out[i] = processDoc(d, pre, keep)
	}
	return out, df
}

// processDoc tokenizes one document into its per-value term lists; keep,
// when non-nil, restricts tokens to the given set (the TF-IDF filter).
// Shared by the full build and the delta insert path.
func processDoc(d corpus.Document, pre textproc.Preprocessor, keep map[string]struct{}) docTerms {
	dt := docTerms{id: d.ID, parent: d.Parent}
	for _, v := range d.Values {
		toks := pre.Tokens(v.Text)
		if keep != nil {
			filtered := toks[:0]
			for _, t := range toks {
				if _, ok := keep[t]; ok {
					filtered = append(filtered, t)
				}
			}
			toks = filtered
		}
		terms := textproc.NGrams(toks, maxN(pre))
		dt.perValue = append(dt.perValue, terms)
		dt.columns = append(dt.columns, v.Column)
	}
	return dt
}

func maxN(pre textproc.Preprocessor) int {
	if pre.MaxNGram <= 0 {
		return 1
	}
	return pre.MaxNGram
}

// topTFIDF returns the tokens with the k highest TF-IDF scores in the doc.
func topTFIDF(tokens []string, df map[string]int, nDocs, k int) map[string]struct{} {
	tf := make(map[string]int, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	type scored struct {
		tok   string
		score float64
	}
	list := make([]scored, 0, len(tf))
	for t, f := range tf {
		idf := math.Log(float64(1+nDocs) / float64(1+df[t]))
		list = append(list, scored{t, float64(f) * idf})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].score != list[j].score {
			return list[i].score > list[j].score
		}
		return list[i].tok < list[j].tok
	})
	if k > len(list) {
		k = len(list)
	}
	out := make(map[string]struct{}, k)
	for _, s := range list[:k] {
		out[s.tok] = struct{}{}
	}
	return out
}

// Build runs Algorithm 1 over two corpora, applying the configured
// filtering and merging. Metadata nodes are created for both corpora; under
// FilterIntersect, data nodes come from the corpus with the smaller
// distinct-token count and the other corpus only connects to existing ones.
func Build(a, b *corpus.Corpus, cfg BuildConfig) (*Result, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("graph: Build requires two corpora")
	}
	pre := cfg.Pre
	if pre.MaxNGram == 0 && !pre.RemoveStopwords && !pre.Stem {
		pre = textproc.DefaultPreprocessor()
	}
	tfidfK := 0
	if cfg.Filter == FilterTFIDF {
		tfidfK = cfg.TFIDFTopK
		if tfidfK <= 0 {
			tfidfK = 10
		}
	}

	docsA, dfA := processCorpus(a, pre, tfidfK)
	docsB, dfB := processCorpus(b, pre, tfidfK)

	// Under intersect filtering, the vocabulary-defining ("primary") corpus
	// is the one with fewer distinct tokens (§II-B).
	primaryIsA := true
	if cfg.Filter == FilterIntersect {
		primaryIsA = a.DistinctTokens(pre) <= b.DistinctTokens(pre)
	}

	// Build the canonicalizer over the term universe.
	var universe []string
	seen := map[string]struct{}{}
	collect := func(docs []docTerms) {
		for _, d := range docs {
			for _, terms := range d.perValue {
				for _, t := range terms {
					if _, ok := seen[t]; !ok {
						seen[t] = struct{}{}
						universe = append(universe, t)
					}
				}
			}
		}
	}
	collect(docsA)
	collect(docsB)

	mergers := cfg.Mergers
	if cfg.Bucketing {
		var bk *Bucketer
		if cfg.BucketWidth > 0 {
			vals := CollectNumeric(universe)
			if len(vals) > 0 {
				min := vals[0]
				for _, v := range vals {
					if v < min {
						min = v
					}
				}
				bk = NewBucketerWidth(min, cfg.BucketWidth)
			}
		} else {
			bk = NewBucketer(CollectNumeric(universe))
		}
		if bk != nil {
			mergers = append([]Merger{bk}, mergers...)
		}
	}
	canon := NewCanonicalizer(universe, mergers...)

	g := New(len(universe) + len(docsA) + len(docsB))
	res := &Result{
		Graph:        g,
		DocNode:      make(map[string]NodeID, len(docsA)+len(docsB)),
		AttrNode:     make(map[string]NodeID),
		Canon:        canon,
		Mergers:      mergers,
		Pre:          pre,
		PrimaryFirst: primaryIsA,
		ConnectMeta:  cfg.ConnectMetadata && !cfg.DisableMetadataEdges,
		TFIDFTopK:    tfidfK,
	}
	if tfidfK > 0 {
		res.DF = [2]map[string]int{dfA, dfB}
		res.DFDocs = [2]int{len(a.Docs), len(b.Docs)}
	}

	addCorpus := func(c *corpus.Corpus, docs []docTerms, side Side, createTerms bool) error {
		kind := kindFor(c)
		// Attribute nodes are shared per column (lines 5-10 of Alg. 1).
		if c.Kind == corpus.Table {
			for _, col := range c.Columns {
				key := c.Name + "/" + col
				if _, ok := res.AttrNode[key]; ok {
					continue
				}
				id, err := g.AddMeta(key, Attribute, side)
				if err != nil {
					return err
				}
				res.AttrNode[key] = id
			}
		}
		for _, d := range docs {
			id, err := g.AddMeta(d.id, kind, side)
			if err != nil {
				return err
			}
			res.DocNode[d.id] = id
		}
		for _, d := range docs {
			id := res.DocNode[d.id]
			// Structured text: connect to parent metadata node (lines 12-16,
			// §II-A), unless the ablation disables it.
			if c.Kind == corpus.Structured && d.parent != "" && cfg.ConnectMetadata && !cfg.DisableMetadataEdges {
				if pid, ok := res.DocNode[d.parent]; ok {
					g.AddEdge(id, pid)
				}
			}
			for vi, terms := range d.perValue {
				var attr NodeID
				hasAttr := false
				if c.Kind == corpus.Table {
					attr, hasAttr = res.AttrNode[c.Name+"/"+d.columns[vi]], true
				}
				for _, t := range terms {
					ct := canon.Canonical(t)
					var tn NodeID
					if createTerms {
						tn = g.EnsureData(ct)
					} else {
						var ok bool
						tn, ok = g.DataNode(ct)
						if !ok {
							res.FilteredTerms++
							continue
						}
					}
					g.AddEdge(id, tn)
					if hasAttr {
						g.AddEdge(attr, tn)
					}
				}
			}
		}
		return nil
	}

	// Creation order: primary corpus first, with term creation; then the
	// other corpus, creating terms only when filtering is off.
	secondaryCreates := cfg.Filter != FilterIntersect
	var err error
	if primaryIsA {
		if err = addCorpus(a, docsA, First, true); err == nil {
			err = addCorpus(b, docsB, Second, secondaryCreates)
		}
	} else {
		if err = addCorpus(b, docsB, Second, true); err == nil {
			err = addCorpus(a, docsA, First, secondaryCreates)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
