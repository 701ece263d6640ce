package datasets

import (
	"fmt"
	"strings"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/kb"
)

// IMDbConfig sizes the movie scenario (paper §V-A, Table I).
type IMDbConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Movies is the number of movies in the table (each gets reviews).
	Movies int
	// ReviewsPerMovie mirrors the paper's two reviews per movie.
	ReviewsPerMovie int
	// WithTitle keeps the title attribute (the WT variant); false drops it
	// (the harder NT variant).
	WithTitle bool
	// GeneralSentences sizes the pre-training corpus substitute.
	GeneralSentences int
}

func (c IMDbConfig) withDefaults() IMDbConfig {
	if c.Movies <= 0 {
		c.Movies = 200
	}
	if c.ReviewsPerMovie <= 0 {
		c.ReviewsPerMovie = 2
	}
	if c.GeneralSentences <= 0 {
		c.GeneralSentences = 4000
	}
	return c
}

// movie is one world entity.
type movie struct {
	title    string
	director string // "first last"
	stars    [2]string
	year     int
	rating   string
	genre    string
	language string
	country  string
	runtime  int
	budget   int
	gross    int
	votes    int
}

// IMDb generates the movie scenario: a movie table (13 attributes with
// title, 12 without) and a review corpus, two reviews per movie. Reviews
// mention entities with surface variation (last names, first-initial
// variants, genre synonyms) and distractor entities from other movies, so
// token overlap alone is ambiguous — the regime the paper targets.
func IMDb(cfg IMDbConfig) (*Scenario, error) {
	cfg = cfg.withDefaults()
	r := newRng(cfg.Seed)

	// People pools are deliberately smaller than the movie count so the
	// same director and stars appear in several movies — the ambiguity the
	// paper motivates with "an actor named Willis appears in different
	// paragraphs and tuples, but only one tuple is the correct match".
	nDirectors := cfg.Movies/5 + 2
	nStars := cfg.Movies/3 + 4
	directors := make([]string, nDirectors)
	for i := range directors {
		directors[i] = pick(r, firstNames) + " " + pick(r, lastNames)
	}
	stars := make([]string, nStars)
	for i := range stars {
		stars[i] = pick(r, firstNames) + " " + pick(r, lastNames)
	}

	world := make([]movie, cfg.Movies)
	usedTitles := map[string]bool{}
	for i := range world {
		var title string
		for {
			n := 1 + r.Intn(3)
			title = strings.Join(pickN(r, titleWords, n), " ")
			if !usedTitles[title] {
				usedTitles[title] = true
				break
			}
		}
		s1 := pick(r, stars)
		s2 := pick(r, stars)
		for s2 == s1 {
			s2 = pick(r, stars)
		}
		world[i] = movie{
			title:    title,
			director: pick(r, directors),
			stars:    [2]string{s1, s2},
			year:     1960 + r.Intn(64),
			rating:   pick(r, ratings),
			genre:    pick(r, genres),
			language: pick(r, languages),
			country:  pick(r, countries),
			runtime:  80 + r.Intn(110),
			budget:   (1 + r.Intn(200)) * 1000000,
			gross:    (1 + r.Intn(900)) * 1000000,
			votes:    (1 + r.Intn(2000)) * 1000,
		}
	}

	// Table corpus.
	cols := []string{"title", "director", "star1", "star2", "year", "rating",
		"genre", "language", "country", "runtime", "budget", "gross", "votes"}
	if !cfg.WithTitle {
		cols = cols[1:]
	}
	rows := make([][]string, len(world))
	ids := make([]string, len(world))
	for i, m := range world {
		row := []string{m.title, m.director, m.stars[0], m.stars[1],
			fmt.Sprint(m.year), m.rating, m.genre, m.language, m.country,
			fmt.Sprint(m.runtime), fmt.Sprint(m.budget), fmt.Sprint(m.gross),
			fmt.Sprint(m.votes)}
		if !cfg.WithTitle {
			row = row[1:]
		}
		rows[i] = row
		ids[i] = fmt.Sprintf("movies:t%d", i)
	}
	table, err := corpus.NewTable("movies", cols, rows, ids)
	if err != nil {
		return nil, err
	}

	// Review corpus.
	var reviews []string
	var reviewIDs []string
	truth := map[string][]string{}
	for i := range world {
		for k := 0; k < cfg.ReviewsPerMovie; k++ {
			rid := fmt.Sprintf("reviews:p%d_%d", i, k)
			reviews = append(reviews, reviewText(r, world, i))
			reviewIDs = append(reviewIDs, rid)
			truth[rid] = []string{ids[i]}
		}
	}
	text, err := corpus.NewText("reviews", reviews, reviewIDs)
	if err != nil {
		return nil, err
	}

	name := "imdb-nt"
	if cfg.WithTitle {
		name = "imdb-wt"
	}
	return &Scenario{
		Name:    name,
		First:   table,
		Second:  text,
		Queries: reviewIDs,
		Targets: ids,
		Truth:   truth,
		KB:      imdbKB(r, world),
		Lexicon: imdbLexicon(world),
		General: GeneralCorpus(cfg.Seed+101, cfg.GeneralSentences),
	}, nil
}

// reviewText writes one review for movie idx: entity mentions with surface
// variation plus filler and distractor mentions. Roughly half the reviews
// never name the title; for those, only the combination of (ambiguous)
// people, genre hints and year disambiguates — the regime where pairwise
// lexical matchers struggle and the joint graph representation pays off.
func reviewText(r rng, world []movie, idx int) string {
	m := world[idx]
	var parts []string

	withTitle := r.maybe(0.5)
	if withTitle {
		if r.maybe(0.7) {
			parts = append(parts, m.title)
		} else {
			tw := strings.Fields(m.title)
			parts = append(parts, pick(r, tw))
		}
	}
	// Director: full name, last name only, or first-initial variant.
	if r.maybe(0.7) || !withTitle {
		parts = append(parts, nameVariant(r, m.director))
	}
	// Stars (at least one in title-free reviews).
	mentioned := 0
	for _, s := range m.stars {
		if r.maybe(0.6) {
			parts = append(parts, nameVariant(r, s))
			mentioned++
		}
	}
	if !withTitle && mentioned == 0 {
		parts = append(parts, nameVariant(r, m.stars[0]))
	}
	// Genre: synonym (the "comedy vs drama" effect) or literal.
	if r.maybe(0.5) {
		parts = append(parts, pick(r, genreSynonyms[m.genre]))
	} else if r.maybe(0.5) {
		parts = append(parts, m.genre)
	}
	// Occasional hard facts.
	if r.maybe(0.35) {
		parts = append(parts, fmt.Sprint(m.year))
	}
	if r.maybe(0.2) {
		parts = append(parts, m.country)
	}
	// Distractors: people from other movies (the ambiguous-Willis case).
	for n := 0; n < 2; n++ {
		if r.maybe(0.5) && len(world) > 1 {
			other := r.Intn(len(world))
			if other == idx {
				other = (other + 1) % len(world)
			}
			parts = append(parts, lastName(world[other].stars[r.Intn(2)]))
		}
	}
	// Filler: generic prose tokens; the intersect filter drops them from
	// the graph while pairwise lexical scorers see them dilute overlap.
	parts = append(parts, pickN(r, reviewFiller, 6+r.Intn(8))...)
	return strings.Join(shuffled(r, parts), " ")
}

// nameVariant renders a person name as "first last", "last", or "f last".
func nameVariant(r rng, full string) string {
	switch r.Intn(3) {
	case 0:
		return full
	case 1:
		return lastName(full)
	default:
		return full[:1] + " " + lastName(full)
	}
}

func lastName(full string) string {
	f := strings.Fields(full)
	return f[len(f)-1]
}

// imdbKB builds the DBpedia substitute: true world facts that the corpora
// do not state, connecting people, titles and genres.
func imdbKB(r rng, world []movie) *kb.Memory {
	m := kb.NewMemory()
	for _, mv := range world {
		m.Add(mv.director, "directorOf", mv.title)
		m.Add(mv.stars[0], "starringOf", mv.title)
		m.Add(mv.stars[1], "starringOf", mv.title)
		m.Add(mv.director, "style", mv.genre)
		m.Add(mv.director, "collaboratedWith", mv.stars[0])
		m.Add(mv.director, "collaboratedWith", mv.stars[1])
		// Last-name aliases bridge review shorthand to full names.
		m.Add(lastName(mv.director), "surnameOf", mv.director)
		m.Add(lastName(mv.stars[0]), "surnameOf", mv.stars[0])
		m.Add(lastName(mv.stars[1]), "surnameOf", mv.stars[1])
		// Noise relations (the >800-relations-per-entity problem, §III-B):
		// spouses and birthplaces that rarely help matching.
		if r.maybe(0.5) {
			m.Add(mv.director, "spouse", pick(r, firstNames)+" "+pick(r, lastNames))
		}
		if r.maybe(0.5) {
			m.Add(mv.stars[0], "birthPlace", pick(r, countries))
		}
	}
	return m
}

// imdbLexicon declares first-initial variants as synonyms of full names,
// the name-variant merge cases of §II-C.
func imdbLexicon(world []movie) *kb.Lexicon {
	l := kb.NewLexicon()
	addName := func(full string) {
		fields := strings.Fields(full)
		if len(fields) != 2 {
			return
		}
		l.AddSynonyms(full, full[:1]+" "+fields[1])
	}
	for _, mv := range world {
		addName(mv.director)
		addName(mv.stars[0])
		addName(mv.stars[1])
	}
	return l
}
