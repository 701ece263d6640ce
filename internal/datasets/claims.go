package datasets

import (
	"fmt"
	"strings"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/kb"
)

// ClaimsConfig sizes the fact-checking text-to-text scenarios (paper §V-C,
// Tables IV and V): a small set of input claims matched against a large
// set of verified claims (facts).
type ClaimsConfig struct {
	Seed int64
	// Facts is the verified-claims pool size.
	Facts int
	// Claims is the number of query claims (each paraphrases one fact).
	Claims int
	// OverlapHigh controls how much surface vocabulary a claim shares with
	// its fact: true for the easier Snopes-like regime (longer claims,
	// more shared tokens), false for the harder Politifact-like regime.
	OverlapHigh      bool
	GeneralSentences int
}

func (c ClaimsConfig) withDefaults() ClaimsConfig {
	if c.Facts <= 0 {
		c.Facts = 1200
	}
	if c.Claims <= 0 {
		c.Claims = 150
	}
	if c.GeneralSentences <= 0 {
		c.GeneralSentences = 4000
	}
	return c
}

type fact struct {
	subject string
	verb    string
	topic   string
	object  string
	country string
	year    int
}

// Claims generates a fact-checking scenario. Facts are templated
// statements; claims paraphrase facts with synonym substitution and token
// dropping, so lexical overlap is partial and pre-trained synonym
// knowledge (the general corpus covers the paraphrase pairs) is genuinely
// useful — the regime where S-BE and supervised rankers are competitive.
func Claims(cfg ClaimsConfig, name string) (*Scenario, error) {
	cfg = cfg.withDefaults()
	r := newRng(cfg.Seed)

	world := make([]fact, cfg.Facts)
	for i := range world {
		world[i] = fact{
			subject: pick(r, claimSubjects),
			verb:    pick(r, claimVerbs),
			topic:   pick(r, claimTopics),
			object:  pick(r, claimObjects),
			country: pick(r, countries),
			year:    2000 + r.Intn(24),
		}
	}

	factTexts := make([]string, len(world))
	factIDs := make([]string, len(world))
	for i, f := range world {
		parts := []string{f.subject, f.verb, f.topic, f.object, "in",
			f.country, "in", fmt.Sprint(f.year)}
		parts = append(parts, pickN(r, generalWords, 3)...)
		factTexts[i] = strings.Join(parts, " ")
		factIDs[i] = fmt.Sprintf("facts:t%d", i)
	}
	facts, err := corpus.NewText("facts", factTexts, factIDs)
	if err != nil {
		return nil, err
	}

	var claimTexts, claimIDs []string
	truth := map[string][]string{}
	for i := 0; i < cfg.Claims; i++ {
		fi := r.Intn(len(world))
		cid := fmt.Sprintf("tweets:p%d", i)
		claimTexts = append(claimTexts, paraphraseClaim(r, world[fi], cfg.OverlapHigh))
		claimIDs = append(claimIDs, cid)
		truth[cid] = []string{factIDs[fi]}
	}
	claims, err := corpus.NewText("tweets", claimTexts, claimIDs)
	if err != nil {
		return nil, err
	}

	// ConceptNet substitute: paraphrase relations, so expansion can bridge
	// a claim's "plummeted" to a fact's "collapsed".
	mem := kb.NewMemory()
	for w, alts := range claimParaphrase {
		for _, a := range alts {
			for _, tok := range strings.Fields(a) {
				if len(tok) > 2 {
					mem.Add(w, "relatedTo", tok)
				}
			}
		}
	}

	return &Scenario{
		Name:    name,
		First:   facts,
		Second:  claims,
		Queries: claimIDs,
		Targets: factIDs,
		Truth:   truth,
		KB:      mem,
		Lexicon: kb.NewLexicon(),
		General: GeneralCorpus(cfg.Seed+404, cfg.GeneralSentences),
	}, nil
}

// paraphraseClaim rewrites a fact as a tweet: synonyms replace the verb and
// object, some slots drop, and filler words pad the text.
func paraphraseClaim(r rng, f fact, overlapHigh bool) string {
	keepP := 0.55
	fillerN := 2
	if overlapHigh {
		keepP = 0.85
		fillerN = 5
	}
	var parts []string
	add := func(word string, paraphrasable bool) {
		if r.maybe(keepP) {
			parts = append(parts, word)
			return
		}
		if paraphrasable {
			if alts, ok := claimParaphrase[word]; ok {
				parts = append(parts, pick(r, alts))
			}
		}
	}
	add(f.subject, false)
	add(f.verb, true)
	parts = append(parts, f.topic) // the topic always survives
	add(f.object, true)
	add(f.country, false)
	if r.maybe(0.4) {
		parts = append(parts, fmt.Sprint(f.year))
	}
	parts = append(parts, pickN(r, generalWords, fillerN)...)
	return strings.Join(shuffled(r, parts), " ")
}
