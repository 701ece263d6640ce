//go:build linux

package main

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/kb"
	"github.com/tdmatch/tdmatch/internal/match"
)

// sizes fixes the fixture sizes and repetition counts of a run. The
// defaults are sized so that one run of any workload, set-up included,
// stays near twenty seconds on the two-core sandbox; the smoke test
// shrinks them.
type sizes struct {
	// imdbMovies sizes batch_imdb (two reviews per movie); builds is how
	// often its Build is repeated for the build_s median.
	imdbMovies int
	builds     int
	// scanRows is the rows per side of the serve_scan / serve_hot
	// fixture, annRows of the serve_ann one (the HNSW graph is built
	// twice, by Build and again by SaveFileV6, so it is smaller).
	scanRows int
	annRows  int
	// hotSet is the number of distinct IDs serve_hot queries.
	hotSet int
	// mixedMovies sizes the serve_mixed fixture: small, because the
	// daemon's /v1/compact retrains at the library defaults (20 walks of
	// 30 per node, 2 epochs) whatever the snapshot was built with.
	mixedMovies int
	// foldRate and warmRate are serve_mixed's open-loop ingest rates per
	// second in phase A (fold path, about a millisecond per document)
	// and phase B (warm path, about two hundred at the defaults — 20/s
	// would be four times what the daemon can take).
	foldRate, warmRate float64
	// checks is how many daemon answers are compared with the exact
	// scan; coldStarts how many start-to-/readyz timings make ready_s.
	// restarts is how many SIGKILL-and-restart cycles make serve_mixed's
	// recovery_s.
	checks     int
	coldStarts int
	restarts   int
	// ladderOps and ladderIngests size the traced run's layer ladders;
	// ladderWarm is how many documents the warm-path rungs ingest, each
	// costing a couple of hundred milliseconds at the library defaults.
	ladderOps     int
	ladderIngests int
	ladderWarm    int
	// workers is Config.Workers for every Build (0 = GOMAXPROCS); 1
	// makes training deterministic so counts repeat exactly.
	workers int
}

var defaultSizes = sizes{
	imdbMovies:    50,
	builds:        3,
	scanRows:      12000,
	annRows:       4000,
	hotSet:        2000,
	mixedMovies:   15,
	foldRate:      20,
	warmRate:      2.5,
	checks:        500,
	coldStarts:    15,
	restarts:      200,
	ladderOps:     2000,
	ladderIngests: 40,
	ladderWarm:    15,
}

// k is the ranking depth of every query the harness issues.
const k = 10

// fixture is one seeded pair of corpora on disk — the only thing the
// daemon is ever given — plus the build configuration and the ground
// truth the quality metrics are scored against.
type fixture struct {
	firstPath, secondPath string
	firstName, secondName string
	cfg                   tdmatch.Config
	// truth maps a second-corpus document ID to the first-corpus IDs it
	// should match (IMDb fixtures only).
	truth map[string][]string
	// scenario is the generated IMDb world (nil for synthetic
	// fixtures), kept for its knowledge base and lexicon.
	scenario *datasets.Scenario
}

// corpora loads fresh corpus objects from the fixture files through
// the same loader the daemon uses, so document IDs agree. Models keep
// and mutate the corpora they are built or bound on, so every model
// gets its own pair.
func (f *fixture) corpora() (first, second *tdmatch.Corpus, err error) {
	if first, err = tdmatch.LoadCorpus(f.firstPath, f.firstName); err != nil {
		return nil, nil, err
	}
	if second, err = tdmatch.LoadCorpus(f.secondPath, f.secondName); err != nil {
		return nil, nil, err
	}
	return first, second, nil
}

// bind is a cold load in process: fresh corpora from the files, the
// snapshot opened (memory-mapped) and bound onto them — what the daemon
// does at start.
func (f *fixture) bind(snapshot string) (*tdmatch.Model, error) {
	first, second, err := f.corpora()
	if err != nil {
		return nil, err
	}
	snap, err := tdmatch.OpenSnapshotFile(snapshot)
	if err != nil {
		return nil, err
	}
	return snap.Bind(first, second)
}

// stageCorpora loads the fixture files as the internal corpora the
// pipeline stages take.
func (f *fixture) stageCorpora() (first, second *corpus.Corpus, err error) {
	if first, err = corpus.Load(f.firstPath, f.firstName); err != nil {
		return nil, nil, err
	}
	if second, err = corpus.Load(f.secondPath, f.secondName); err != nil {
		return nil, nil, err
	}
	return first, second, nil
}

// writeTable writes a table corpus as CSV with a header row.
func writeTable(path string, columns []string, rows [][]string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(file)
	if err := w.Write(columns); err != nil {
		file.Close()
		return err
	}
	if err := w.WriteAll(rows); err != nil { // WriteAll flushes
		file.Close()
		return err
	}
	return file.Close()
}

// writeLines writes a text corpus, one document per line.
func writeLines(path string, lines []string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	for _, l := range lines {
		w.WriteString(l)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// imdbFixture generates the paper's movie/review scenario from the
// seed and writes it as movies.csv / reviews.txt. Documents get the
// loader's positional IDs (movies:t<i>, reviews:p<j>), and the
// scenario's ground truth is re-keyed to them.
func imdbFixture(dir string, seed int64, movies int, cfg tdmatch.Config) (*fixture, error) {
	s, err := datasets.IMDb(datasets.IMDbConfig{Seed: seed, Movies: movies, WithTitle: true, GeneralSentences: 1})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, s.First.Len())
	firstPos := make(map[string]int, s.First.Len())
	for i, d := range s.First.Docs {
		row := make([]string, len(d.Values))
		for j, v := range d.Values {
			row[j] = v.Text
		}
		rows = append(rows, row)
		firstPos[d.ID] = i
	}
	texts := make([]string, 0, s.Second.Len())
	truth := make(map[string][]string, s.Second.Len())
	for j, d := range s.Second.Docs {
		texts = append(texts, d.Text())
		for _, target := range s.Truth[d.ID] {
			id := fmt.Sprintf("reviews:p%d", j)
			truth[id] = append(truth[id], fmt.Sprintf("movies:t%d", firstPos[target]))
		}
	}
	f := &fixture{
		firstPath:  filepath.Join(dir, "movies.csv"),
		secondPath: filepath.Join(dir, "reviews.txt"),
		firstName:  "movies",
		secondName: "reviews",
		cfg:        cfg,
		truth:      truth,
		scenario:   s,
	}
	if err := writeTable(f.firstPath, s.First.Columns, rows); err != nil {
		return nil, err
	}
	if err := writeLines(f.secondPath, texts); err != nil {
		return nil, err
	}
	return f, nil
}

// synthVocab is the shared vocabulary of the synthetic fixture: small
// against the row count, so every term is a hub many rows share.
const synthVocab = 400

// synthFixture generates the serving fixture: an items table and a
// reports text corpus of rows documents each, where report i names
// item i's unique entity token plus three shared terms. Training is
// deliberately cheap — serving cost does not depend on embedding
// quality, and the vectors come out near-collinear — so answers are
// scored against the exact scan only, never against a ground truth.
func synthFixture(dir string, seed int64, rows int, index tdmatch.IndexKind, workers int) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	word := func() string { return fmt.Sprintf("term%d", rng.Intn(synthVocab)) }
	table := make([][]string, rows)
	texts := make([]string, rows)
	for i := range table {
		w1, w2, w3 := word(), word(), word()
		table[i] = []string{fmt.Sprintf("entity%d %s", i, w1), w2 + " " + w3}
		texts[i] = fmt.Sprintf("report on entity%d covering %s %s and %s", i, w1, w2, w3)
	}
	cfg := tdmatch.Defaults()
	cfg.Seed = seed
	cfg.NumWalks = 4
	cfg.WalkLength = 10
	cfg.Epochs = 1
	cfg.Dim = 96
	cfg.Index = index
	if workers > 0 {
		cfg.Workers = workers
	}
	f := &fixture{
		firstPath:  filepath.Join(dir, "items.csv"),
		secondPath: filepath.Join(dir, "reports.txt"),
		firstName:  "items",
		secondName: "reports",
		cfg:        cfg,
	}
	if err := writeTable(f.firstPath, []string{"name", "tags"}, table); err != nil {
		return nil, err
	}
	if err := writeLines(f.secondPath, texts); err != nil {
		return nil, err
	}
	return f, nil
}

// kbResource adapts the scenario's knowledge base to the public
// tdmatch.Resource, the way a library user plugs one in.
type kbResource struct{ m *kb.Memory }

// Related implements tdmatch.Resource.
func (r kbResource) Related(term string) []tdmatch.Relation {
	rels := r.m.Related(term)
	out := make([]tdmatch.Relation, len(rels))
	for i, rel := range rels {
		out[i] = tdmatch.Relation{Object: rel.Object, Predicate: rel.Predicate}
	}
	return out
}

// synonymGroups renders the scenario lexicon as Config.SynonymGroups.
func synonymGroups(l *kb.Lexicon) []tdmatch.Synonyms {
	pairs := l.SynonymPairs() // map order: sort so the groups repeat
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	byCanon := map[string]int{}
	var groups []tdmatch.Synonyms
	for _, pair := range pairs {
		variant, canon := pair[0], pair[1]
		i, ok := byCanon[canon]
		if !ok {
			i = len(groups)
			byCanon[canon] = i
			groups = append(groups, tdmatch.Synonyms{Canonical: canon})
		}
		groups[i].Variants = append(groups[i].Variants, variant)
	}
	return groups
}

// ingestDocs derives n seeded second-corpus documents from the
// fixture's own text: each is one existing embedded document's tokens
// plus half of another's, shuffled, so every new document shares
// trained terms with the corpus and therefore gets an embedding on
// both the fold and the warm ingest path.
func ingestDocs(m *tdmatch.Model, second *tdmatch.Corpus, seed int64, prefix string, n int) []tdmatch.IngestDoc {
	rng := rand.New(rand.NewSource(seed))
	ids := embedded(m, second.IDs())
	docs := make([]tdmatch.IngestDoc, n)
	for i := range docs {
		a, _ := second.DocText(ids[rng.Intn(len(ids))])
		b, _ := second.DocText(ids[rng.Intn(len(ids))])
		toks := strings.Fields(a)
		bt := strings.Fields(b)
		toks = append(toks, bt[:len(bt)/2]...)
		rng.Shuffle(len(toks), func(x, y int) { toks[x], toks[y] = toks[y], toks[x] })
		docs[i] = tdmatch.IngestDoc{
			Side:   2,
			ID:     fmt.Sprintf("%s:%s%d", second.Name(), prefix, i),
			Values: []string{strings.Join(toks, " ")},
		}
	}
	return docs
}

// embedded filters IDs down to those the model has a vector for — the
// ones a TopK query can be answered for.
func embedded(m *tdmatch.Model, ids []string) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if m.Vector(id) != nil {
			out = append(out, id)
		}
	}
	return out
}

// oracle is the exact reference the served answers are checked
// against: one flat match.Index per side over Model.Vectors(), scanned
// in full.
type oracle struct {
	m             *tdmatch.Model
	first, second *match.Index
	secondSide    map[string]bool
}

// newOracle builds the exact indexes from the model's own vectors,
// with the corpus order as the tie-breaking ID order the serving
// indexes use.
func newOracle(m *tdmatch.Model, first, second *tdmatch.Corpus) (*oracle, error) {
	side := func(c *tdmatch.Corpus) (*match.Index, error) {
		ids := c.IDs()
		vecs := make([][]float32, len(ids))
		dim := 0
		for i, id := range ids {
			vecs[i] = m.Vector(id)
			if vecs[i] != nil {
				dim = len(vecs[i])
			}
		}
		return match.NewIndex(ids, vecs, dim)
	}
	o := &oracle{m: m, secondSide: make(map[string]bool, second.Len())}
	var err error
	if o.first, err = side(first); err != nil {
		return nil, err
	}
	if o.second, err = side(second); err != nil {
		return nil, err
	}
	for _, id := range second.IDs() {
		o.secondSide[id] = true
	}
	return o, nil
}

// target returns the exact index a query for id scans: the other
// corpus's.
func (o *oracle) target(id string) *match.Index {
	if o.secondSide[id] {
		return o.first
	}
	return o.second
}

// topk is the exact ranking for a document.
func (o *oracle) topk(id string) []string {
	return match.IDsOf(o.target(id).TopK(o.m.Vector(id), k))
}

// margin is the mean gap between the best and the k-th exact score
// over a sample of queries: near zero on a degenerate (collinear)
// fixture, which the run header prints so it is visible.
func (o *oracle) margin(ids []string) float64 {
	if len(ids) == 0 {
		return 0
	}
	sum := 0.0
	for _, id := range ids {
		r := o.target(id).TopK(o.m.Vector(id), k)
		if len(r) > 0 {
			sum += r[0].Score - r[len(r)-1].Score
		}
	}
	return sum / float64(len(ids))
}

// recallAt10 scores one served ranking against the exact one: the
// share of the exact top-k present, and whether the order is
// identical.
func recallAt10(got, want []string) (recall float64, identical bool) {
	if len(want) == 0 {
		return 1, len(got) == 0
	}
	in := make(map[string]bool, len(got))
	for _, id := range got {
		in[id] = true
	}
	hits := 0
	for _, id := range want {
		if in[id] {
			hits++
		}
	}
	identical = len(got) == len(want)
	for i := 0; identical && i < len(want); i++ {
		identical = got[i] == want[i]
	}
	return float64(hits) / float64(len(want)), identical
}
