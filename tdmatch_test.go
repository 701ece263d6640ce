package tdmatch

import (
	"cmp"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// fixtureCorpora reproduces the paper's running example (Figures 1 and 4).
func fixtureCorpora(t *testing.T) (*Corpus, *Corpus) {
	t.Helper()
	movies, err := NewTable("movies",
		[]string{"title", "director", "star", "rating", "genre"},
		[][]string{
			{"The Sixth Sense", "Shyamalan", "Bruce Willis", "PG", "Thriller"},
			{"Pulp Fiction", "Tarantino", "Bruce Willis", "R", "Drama"},
			{"The Godfather", "Coppola", "Marlon Brando", "R", "Crime"},
			{"Alien", "Ridley Scott", "Sigourney Weaver", "R", "Horror"},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reviews, err := NewText("reviews", []string{
		"a comedy by Tarantino starring Willis with unforgettable dialogue",
		"Willis sees dead people in this Shyamalan thriller about a sixth sense",
		"Brando leads the godfather crime family in Coppola's masterpiece",
		"Weaver fights the alien in deep space horror",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return movies, reviews
}

func smallConfig() Config {
	cfg := Defaults()
	cfg.Seed = 42
	cfg.NumWalks = 30
	cfg.WalkLength = 12
	cfg.Dim = 32
	cfg.Epochs = 3
	cfg.Workers = 2
	return cfg
}

func TestBuildAndTopK(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := model.Stats()
	if st.GraphNodes == 0 || st.GraphEdges == 0 {
		t.Fatalf("empty graph: %+v", st)
	}
	if st.Walks == 0 || st.TrainTime <= 0 || st.BuildTime < st.TrainTime {
		t.Errorf("stats wrong: %+v", st)
	}

	// Reviews 1-3 are lexically anchored; review 0 is the hard one (genre
	// mismatch). Expect at least 3 of 4 correct at rank 1.
	want := map[string]string{
		"reviews:p0": "movies:t1",
		"reviews:p1": "movies:t0",
		"reviews:p2": "movies:t2",
		"reviews:p3": "movies:t3",
	}
	correct := 0
	for q, target := range want {
		got, err := model.TopK(q, 1)
		if err != nil {
			t.Fatalf("TopK(%s): %v", q, err)
		}
		if len(got) == 1 && got[0].ID == target {
			correct++
		}
	}
	if correct < 3 {
		t.Errorf("only %d/4 reviews matched correctly", correct)
	}
}

func TestTopKFromFirstCorpus(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.TopK("movies:t2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("TopK = %v", got)
	}
	for _, m := range got {
		if !strings.HasPrefix(m.ID, "reviews:") {
			t.Errorf("tuple query returned non-review %s", m.ID)
		}
	}
}

func TestTopKUnknownDoc(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.TopK("ghost:p0", 3); err == nil {
		t.Error("want error for unknown document")
	}
}

func TestMatchAll(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := model.MatchAll(true, 2)
	if len(all) != 4 {
		t.Fatalf("MatchAll = %d queries", len(all))
	}
	for q, ms := range all {
		if len(ms) != 2 {
			t.Errorf("%s: %d matches", q, len(ms))
		}
	}
}

func TestBuildWithExpansion(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	// The paper's §III-A example triple: style(Tarantino, Comedy) connects
	// review p0's "comedy" to tuple t1 via Tarantino.
	cfg.Resource = NewMemoryResource([][3]string{
		{"tarantino", "style", "comedi"},
		{"willi", "starring", "pulp fiction"},
	})
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := model.Stats()
	if st.ExpandedEdges <= st.GraphEdges-2 {
		t.Errorf("expansion added no edges: %+v", st)
	}
}

func TestBuildWithCompression(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Compression = CompressMSP
	cfg.CompressionRatio = 0.5
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := model.Stats()
	if st.CompressedNodes > st.ExpandedNodes {
		t.Errorf("compression grew the graph: %+v", st)
	}
	// All metadata documents must still be matchable.
	for _, q := range []string{"reviews:p0", "reviews:p1", "reviews:p2", "reviews:p3"} {
		if _, err := model.TopK(q, 1); err != nil {
			t.Errorf("TopK(%s) after compression: %v", q, err)
		}
	}
}

func TestBuildWithSynonyms(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.SynonymGroups = []Synonyms{{Canonical: "willi", Variants: []string{"bruce willi"}}}
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.Stats().MergedTerms == 0 {
		t.Error("synonym group produced no merges")
	}
}

func TestBuildDeterministicWithOneWorker(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Workers = 1
	m1, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := m1.Vector("reviews:p0")
	v2 := m2.Vector("reviews:p0")
	if v1 == nil || v2 == nil {
		t.Fatal("missing vectors")
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("single-worker builds differ")
		}
	}
}

// textCorpora is a text-to-text pair, the case where the paper trains
// CBOW with window 15.
func textCorpora(t *testing.T) (*Corpus, *Corpus) {
	t.Helper()
	facts, err := NewText("facts", []string{
		"Willis starred in the sixth sense directed by Shyamalan",
		"Tarantino directed pulp fiction with Willis",
		"Coppola directed the godfather starring Brando",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	claims, err := NewText("claims", []string{
		"Shyamalan and Willis made the sixth sense",
		"Brando was the godfather for Coppola",
		"pulp fiction is a Tarantino film",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return facts, claims
}

// TestConfigLiteralTrainsPaperObjective: a Config literal trains the
// objective Defaults() trains, so the zero values select the paper's
// defaults as Config says; both builds give identical vector bits.
func TestConfigLiteralTrainsPaperObjective(t *testing.T) {
	facts, claims := textCorpora(t)
	lit := Config{Seed: 5, NumWalks: 10, WalkLength: 10, Dim: 16, Epochs: 2, Workers: 1}
	def := Defaults()
	def.Seed, def.NumWalks, def.WalkLength, def.Dim, def.Epochs, def.Workers = 5, 10, 10, 16, 2, 1
	a, err := Build(facts, claims, lit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(facts, claims, def)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Vectors()) == 0 || len(a.Vectors()) != len(b.Vectors()) {
		t.Fatalf("%d and %d document vectors", len(a.Vectors()), len(b.Vectors()))
	}
	for id, va := range a.Vectors() {
		vb := b.Vector(id)
		if len(vb) != len(va) {
			t.Fatalf("%s: vector lengths %d and %d", id, len(va), len(vb))
		}
		for i := range va {
			if math.Float32bits(va[i]) != math.Float32bits(vb[i]) {
				t.Fatalf("%s: literal and Defaults() configs trained different vectors", id)
			}
		}
	}
}

// TestWindowOverridesObjectiveWindow: a positive Window replaces the
// window the corpus kinds select and keeps their objective.
func TestWindowOverridesObjectiveWindow(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	facts, claims := textCorpora(t)
	for _, c := range []struct {
		name          string
		first, second *Corpus
		mode          embed.Mode
		window        int
	}{
		{"table/text", movies, reviews, embed.SkipGram, 3},
		{"text/text", facts, claims, embed.CBOW, 15},
	} {
		for _, window := range []int{0, 7} {
			want := cmp.Or(window, c.window)
			cfg := smallConfig()
			cfg.Window = window
			m := &Model{cfg: cfg.withDefaults(), first: c.first, second: c.second}
			if e := m.pipelineConfig().Embed; e.Mode != c.mode || e.Window != want {
				t.Errorf("%s, Window %d: trains (%v, %d), want (%v, %d)", c.name, window, e.Mode, e.Window, c.mode, want)
			}
		}
	}
}

func TestBuildNilCorpus(t *testing.T) {
	if _, err := Build(nil, nil, Defaults()); err == nil {
		t.Error("want error for nil corpora")
	}
}

func TestTaxonomyCorpusAPI(t *testing.T) {
	tax, err := NewTaxonomy("tax", []TaxonomyNode{
		{ID: "tax:root", Text: "audit"},
		{ID: "tax:a", Text: "audit programme", Parent: "tax:root"},
		{ID: "tax:b", Text: "iso 19001 planning", Parent: "tax:a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := tax.Paths()
	if len(paths["tax:b"]) != 3 {
		t.Errorf("path = %v", paths["tax:b"])
	}
	docs, err := NewText("docs", []string{
		"planning the audit programme for iso 19001 compliance",
		"unrelated text about cooking dinner recipes",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Build(tax, docs, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.TopK("docs:p0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID == "tax:root" {
		t.Log("matched root; acceptable but weak")
	}
	// Text corpora have no paths.
	if docs.Paths() != nil {
		t.Error("text corpus Paths must be nil")
	}
}

func TestCorpusAccessors(t *testing.T) {
	movies, _ := fixtureCorpora(t)
	if movies.Name() != "movies" || movies.Len() != 4 {
		t.Error("accessors wrong")
	}
	if len(movies.IDs()) != 4 {
		t.Error("IDs wrong")
	}
	text, ok := movies.DocText("movies:t0")
	if !ok || !strings.Contains(text, "Sixth Sense") {
		t.Errorf("DocText = %q %v", text, ok)
	}
	if _, ok := movies.DocText("nope"); ok {
		t.Error("missing doc must be !ok")
	}
}

func TestMatchString(t *testing.T) {
	m := Match{ID: "x", Score: 0.5}
	if m.String() != "x(0.500)" {
		t.Errorf("String = %s", m.String())
	}
}

// TestMatchFields pins the public result type's field set. Match is an
// alias of the internal match.Scored, so a field added there for the
// kernels' use would silently change the API, its JSON form and the
// equality callers rely on.
func TestMatchFields(t *testing.T) {
	want := []reflect.StructField{
		{Name: "ID", Type: reflect.TypeFor[string]()},
		{Name: "Score", Type: reflect.TypeFor[float64]()},
	}
	typ := reflect.TypeFor[Match]()
	if typ.NumField() != len(want) {
		t.Fatalf("Match has %d fields, want %d (ID string, Score float64)", typ.NumField(), len(want))
	}
	for i, w := range want {
		if f := typ.Field(i); f.Name != w.Name || f.Type != w.Type || f.Tag != "" {
			t.Errorf("Match field %d = %s %v `%s`, want %s %v", i, f.Name, f.Type, f.Tag, w.Name, w.Type)
		}
	}
}

func TestMemoryResource(t *testing.T) {
	r := NewMemoryResource([][3]string{{"a", "p", "b"}})
	rels := r.Related("a")
	if len(rels) != 1 || rels[0].Object != "b" || rels[0].Predicate != "p" {
		t.Errorf("Related = %v", rels)
	}
	if len(r.Related("b")) != 1 {
		t.Error("resource must be symmetric")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxNGram != 3 || cfg.WalkLength != 30 || cfg.Dim <= 0 || cfg.Workers <= 0 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

// TestParseIndexKind: ParseIndexKind inverts IndexKind.String for every
// kind, rejects the removed "ivf" and "sq8" with an error naming their
// removal, and the persisted kind values stay where snapshots recorded
// them (flat 0, hnsw 3; 1 and 2 stay reserved for the removed kinds).
func TestParseIndexKind(t *testing.T) {
	for _, want := range []IndexKind{IndexFlat, IndexHNSW} {
		got, err := ParseIndexKind(want.String())
		if err != nil || got != want {
			t.Errorf("ParseIndexKind(%q) = %v, %v", want.String(), got, err)
		}
	}
	for s, wantErr := range map[string]string{
		"ivf": "was removed", "sq8": "was removed", "annoy": "unknown", "": "unknown", "FLAT": "unknown",
	} {
		if _, err := ParseIndexKind(s); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("ParseIndexKind(%q) error = %v, want one containing %q", s, err, wantErr)
		}
	}
	if IndexFlat != 0 || IndexHNSW != 3 {
		t.Errorf("persisted kind values moved: flat %d, hnsw %d", IndexFlat, IndexHNSW)
	}
	if want := map[IndexKind]string{1: "ivf", 2: "sq8"}; !reflect.DeepEqual(removedIndexKinds, want) {
		t.Errorf("removed kinds = %v, want %v", removedIndexKinds, want)
	}
}
