// Command tdmatch matches the documents of two corpora from files, using
// the unsupervised graph-embedding pipeline.
//
// Corpus formats are selected by extension: .csv/.tsv are tables (first
// row is the header), .json is a taxonomy (array of {id, text, parent}
// objects), anything else is one text document per line.
//
// Usage:
//
//	tdmatch -first movies.csv -second reviews.txt -k 5
//	tdmatch -first tax.json -second docs.txt -kb triples.tsv -expand
//	tdmatch -first movies.csv -second reviews.txt -index hnsw -hnsw-ef 64
//	tdmatch -first movies.csv -second reviews.txt -save model.snap
//
// The optional -kb file holds tab-separated (subject, predicate, object)
// triples used for graph expansion; -synonyms holds comma-separated
// synonym groups (first entry is canonical), one group per line. -save
// writes the trained model as a v6 snapshot for cmd/tdserved to serve.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/tdmatch/tdmatch"
)

// Note: the -dot flag renders the built graph via the model's DOT dump,
// which is wired through the public API below.

func main() {
	var (
		firstPath  = flag.String("first", "", "first corpus file (vocabulary-defining side)")
		secondPath = flag.String("second", "", "second corpus file (query side)")
		k          = flag.Int("k", 5, "matches per document")
		kbPath     = flag.String("kb", "", "optional TSV triples file for graph expansion")
		synPath    = flag.String("synonyms", "", "optional synonym-groups file (comma separated, canonical first)")
		doExpand   = flag.Bool("expand", false, "expand the graph with the -kb resource")
		compress   = flag.Bool("compress", false, "apply MSP compression (ratio 0.5)")
		walks      = flag.Int("walks", 20, "random walks per node")
		length     = flag.Int("length", 30, "random walk length")
		dim        = flag.Int("dim", 96, "embedding dimensions")
		seed       = flag.Int64("seed", 1, "random seed")
		fromFirst  = flag.Bool("from-first", false, "query from the first corpus instead of the second")
		dotPath    = flag.String("dot", "", "write the built graph in Graphviz DOT format to this file")
		savePath   = flag.String("save", "", "write the trained model snapshot to this file (serve it with tdserved)")
		indexKind  = flag.String("index", "flat", "serving index: flat (exact scan) or hnsw (graph ANN + exact re-rank)")
		hnswM      = flag.Int("hnsw-m", 0, "HNSW neighbors per node per layer (0 = default 16)")
		hnswEf     = flag.Int("hnsw-ef", 0, "HNSW query beam width (0 = default 96)")
		hnswEfc    = flag.Int("hnsw-ef-construct", 0, "HNSW construction beam width (0 = default 128)")
	)
	flag.Parse()
	if *firstPath == "" || *secondPath == "" {
		fmt.Fprintln(os.Stderr, "tdmatch: -first and -second are required")
		os.Exit(2)
	}
	kind, err := tdmatch.ParseIndexKind(*indexKind)
	if err != nil {
		// An unknown index kind is a usage error: say so loudly and show
		// the flag set rather than silently serving from the flat scan.
		fmt.Fprintln(os.Stderr, "tdmatch:", err)
		flag.Usage()
		os.Exit(2)
	}

	first, err := tdmatch.LoadCorpus(*firstPath, "first")
	fatal(err)
	second, err := tdmatch.LoadCorpus(*secondPath, "second")
	fatal(err)

	cfg := tdmatch.Defaults()
	cfg.Seed = *seed
	cfg.NumWalks = *walks
	cfg.WalkLength = *length
	cfg.Dim = *dim
	cfg.Index = kind
	cfg.HNSWM = *hnswM
	cfg.HNSWEf = *hnswEf
	cfg.HNSWEfConstruct = *hnswEfc
	if *compress {
		cfg.Compression = tdmatch.CompressMSP
	}
	if *synPath != "" {
		groups, err := loadSynonyms(*synPath)
		fatal(err)
		cfg.SynonymGroups = groups
	}
	if *doExpand {
		if *kbPath == "" {
			fmt.Fprintln(os.Stderr, "tdmatch: -expand requires -kb")
			os.Exit(2)
		}
		triples, err := loadTriples(*kbPath)
		fatal(err)
		cfg.Resource = tdmatch.NewMemoryResource(triples)
	}

	model, err := tdmatch.Build(first, second, cfg)
	fatal(err)
	st := model.Stats()
	fmt.Fprintf(os.Stderr, "graph: %d nodes, %d edges (expanded: %d/%d) built in %s\n",
		st.GraphNodes, st.GraphEdges, st.ExpandedNodes, st.ExpandedEdges, st.BuildTime)
	fmt.Fprintf(os.Stderr, "stages: train %s (%d tokens, %.0f tokens/s, kernel %s), index first %s / second %s\n",
		st.TrainTime, st.TrainTokens, st.TrainTokensPerSecond(), tdmatch.TrainKernel(), st.IndexBuildTime[0], st.IndexBuildTime[1])

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		fatal(err)
		fatal(model.WriteGraphDOT(f, "tdmatch"))
		fatal(f.Close())
	}

	if *savePath != "" {
		fatal(model.SaveFileV6(*savePath))
		fmt.Fprintf(os.Stderr, "saved model snapshot to %s (v6)\n", *savePath)
	}

	for q, matches := range model.MatchAll(!*fromFirst, *k) {
		parts := make([]string, len(matches))
		for i, m := range matches {
			parts[i] = m.String()
		}
		fmt.Printf("%s\t%s\n", q, strings.Join(parts, "\t"))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdmatch:", err)
		os.Exit(1)
	}
}

func loadTriples(path string) ([][3]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][3]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 3 {
			continue
		}
		out = append(out, [3]string{fields[0], fields[1], fields[2]})
	}
	return out, sc.Err()
}

func loadSynonyms(path string) ([]tdmatch.Synonyms, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []tdmatch.Synonyms
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) < 2 {
			continue
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		out = append(out, tdmatch.Synonyms{Canonical: fields[0], Variants: fields[1:]})
	}
	return out, sc.Err()
}
