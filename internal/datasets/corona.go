package datasets

import (
	"fmt"
	"strings"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/kb"
	"github.com/tdmatch/tdmatch/internal/textproc"
)

// CoronaConfig sizes the CoronaCheck scenario (paper §V-A, Table II): a
// numeric-heavy table of per-country daily case statistics matched against
// month-level claim sentences. Country and month alone are ambiguous —
// they select all report days of that month — so the quoted (and usually
// perturbed) case number carries the disambiguating signal, which is why
// numeric bucketing matters here (§V-F2).
type CoronaConfig struct {
	Seed int64
	// Countries and Months bound the table; each (country, month) pair has
	// DaysPerMonth report rows.
	Countries    int
	Months       int
	DaysPerMonth int
	// GenClaims is the number of data-derived claims (the Gen split).
	GenClaims int
	// UsrClaims is the number of noisy user claims (the Usr split):
	// typos in country names and looser phrasing.
	UsrClaims        int
	GeneralSentences int
}

func (c CoronaConfig) withDefaults() CoronaConfig {
	if c.Countries <= 0 {
		c.Countries = 30
	}
	if c.Months <= 0 {
		c.Months = 6
	}
	if c.DaysPerMonth <= 0 {
		c.DaysPerMonth = 7
	}
	if c.GenClaims <= 0 {
		c.GenClaims = 300
	}
	if c.UsrClaims <= 0 {
		c.UsrClaims = 50
	}
	if c.GeneralSentences <= 0 {
		c.GeneralSentences = 4000
	}
	return c
}

type caseRow struct {
	country     string
	month       string
	day         int
	newCases    int
	totalCases  int
	newDeaths   int
	totalDeaths int
}

// Corona generates the CoronaCheck scenario. The Gen split produces claims
// phrased from tuple values with numeric perturbation; the Usr split adds
// country-name typos and looser phrasing.
func Corona(cfg CoronaConfig, userSplit bool) (*Scenario, error) {
	cfg = cfg.withDefaults()
	r := newRng(cfg.Seed)

	countryList := pickN(r, countries, cfg.Countries)
	monthList := months[:min(cfg.Months, len(months))]

	var world []caseRow
	for _, c := range countryList {
		total, totalD := 0, 0
		for _, m := range monthList {
			for d := 0; d < cfg.DaysPerMonth; d++ {
				nc := 100 + r.Intn(99900)
				nd := 10 + r.Intn(4990)
				total += nc
				totalD += nd
				world = append(world, caseRow{
					country: c, month: m, day: 1 + d*(27/cfg.DaysPerMonth+1),
					newCases: nc, totalCases: total,
					newDeaths: nd, totalDeaths: totalD,
				})
			}
		}
	}

	cols := []string{"country", "month", "day", "new_cases", "total_cases", "new_deaths", "total_deaths"}
	rows := make([][]string, len(world))
	ids := make([]string, len(world))
	for i, w := range world {
		rows[i] = []string{w.country, w.month, fmt.Sprint(w.day), fmt.Sprint(w.newCases),
			fmt.Sprint(w.totalCases), fmt.Sprint(w.newDeaths), fmt.Sprint(w.totalDeaths)}
		ids[i] = fmt.Sprintf("cases:t%d", i)
	}
	table, err := corpus.NewTable("cases", cols, rows, ids)
	if err != nil {
		return nil, err
	}

	nClaims := cfg.GenClaims
	if userSplit {
		nClaims = cfg.UsrClaims
	}
	var claims, claimIDs []string
	truth := map[string][]string{}
	lex := kb.NewLexicon()
	for i := 0; i < nClaims; i++ {
		row := r.Intn(len(world))
		cid := fmt.Sprintf("claims:p%d", i)
		text, extraRow := coronaClaim(r, world, row, userSplit, lex)
		claims = append(claims, text)
		claimIDs = append(claimIDs, cid)
		truth[cid] = []string{ids[row]}
		if extraRow >= 0 {
			truth[cid] = append(truth[cid], ids[extraRow])
		}
	}
	text, err := corpus.NewText("claims", claims, claimIDs)
	if err != nil {
		return nil, err
	}

	// ConceptNet-style resource: relations among the metric words claims
	// use ("cases" ~ "infections"), keyed on stemmed forms to match graph
	// labels. Under the default intersect filtering these words never
	// become data nodes (the table holds only countries, months and
	// numbers), so expansion is close to neutral on this scenario — an
	// earlier design with country "neighbor" relations actively hurt by
	// bridging tuples of different countries, which is why the resource
	// deliberately relates only query-side concepts.
	mem := kb.NewMemory()
	addStemmed := func(s, p, o string) {
		mem.Add(textproc.Stem(s), p, textproc.Stem(o))
	}
	addStemmed("cases", "relatedTo", "infections")
	addStemmed("cases", "relatedTo", "confirmed")
	addStemmed("deaths", "relatedTo", "fatalities")
	addStemmed("deaths", "relatedTo", "casualties")
	addStemmed("total", "relatedTo", "cumulative")
	addStemmed("new", "relatedTo", "daily")

	name := "corona-gen"
	if userSplit {
		name = "corona-usr"
	}
	return &Scenario{
		Name:    name,
		First:   table,
		Second:  text,
		Queries: claimIDs,
		Targets: ids,
		Truth:   truth,
		KB:      mem,
		Lexicon: lex,
		General: GeneralCorpus(cfg.Seed+202, cfg.GeneralSentences),
	}, nil
}

// coronaClaim phrases one claim about row idx; comparative claims also
// return a second supporting row (the "US higher than China" case).
func coronaClaim(r rng, world []caseRow, idx int, user bool, lex *kb.Lexicon) (string, int) {
	w := world[idx]
	metric, value := pickMetric(r, w)
	country := w.country
	if user && r.maybe(0.5) {
		typo := typoWord(r, country)
		lex.AddSynonyms(country, typo)
		country = typo
	}
	// Numeric perturbation: claims usually quote approximate values
	// (rounded, slightly off), so exact token matches are rare and
	// bucketing must bridge claim and tuple.
	if r.maybe(0.85) {
		value += r.Intn(801) - 400
		if value < 0 {
			value = 0
		}
	}
	var parts []string
	if r.maybe(0.3) && !user {
		// Comparative claim across two countries, same month and metric.
		other := -1
		for try := 0; try < 20; try++ {
			cand := r.Intn(len(world))
			if world[cand].month == w.month && world[cand].country != w.country {
				other = cand
				break
			}
		}
		if other >= 0 {
			parts = []string{metric, "in", country, "higher", "than",
				world[other].country, "in", w.month}
			return strings.Join(parts, " "), other
		}
	}
	templates := [][]string{
		{"number", "of", metric, "in", country, "in", w.month, "reached", fmt.Sprint(value)},
		{metric, "in", country, "during", w.month, "was", fmt.Sprint(value)},
		{country, "reported", fmt.Sprint(value), metric, "in", w.month},
	}
	parts = templates[r.Intn(len(templates))]
	if user {
		parts = append(parts, pickN(r, generalWords, 2+r.Intn(3))...)
	}
	return strings.Join(parts, " "), -1
}

func pickMetric(r rng, w caseRow) (string, int) {
	switch r.Intn(4) {
	case 0:
		return "new cases", w.newCases
	case 1:
		return "total cases", w.totalCases
	case 2:
		return "new deaths", w.newDeaths
	default:
		return "total deaths", w.totalDeaths
	}
}

// typoWord injects a single-character typo (drop, swap or duplicate).
func typoWord(r rng, w string) string {
	if len(w) < 4 {
		return w
	}
	i := 1 + r.Intn(len(w)-2)
	switch r.Intn(3) {
	case 0: // drop
		return w[:i] + w[i+1:]
	case 1: // swap
		b := []byte(w)
		b[i], b[i+1] = b[i+1], b[i]
		return string(b)
	default: // duplicate
		return w[:i] + w[i:i+1] + w[i:]
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
