package datasets

import (
	"strings"
	"testing"

	"github.com/tdmatch/tdmatch/internal/corpus"
)

func checkScenarioInvariants(t *testing.T, s *Scenario) {
	t.Helper()
	if s.First == nil || s.Second == nil {
		t.Fatal("nil corpora")
	}
	if len(s.Queries) == 0 || len(s.Targets) == 0 {
		t.Fatal("empty queries or targets")
	}
	targetSet := map[string]bool{}
	for _, id := range s.Targets {
		if _, ok := s.First.Doc(id); !ok && s.First.Kind != corpus.Structured {
			t.Errorf("target %s not in first corpus", id)
		}
		targetSet[id] = true
	}
	for _, q := range s.Queries {
		if _, ok := s.Second.Doc(q); !ok {
			t.Errorf("query %s not in second corpus", q)
		}
	}
	for q, ts := range s.Truth {
		if _, ok := s.Second.Doc(q); !ok {
			t.Errorf("truth query %s unknown", q)
		}
		if len(ts) == 0 {
			t.Errorf("truth for %s empty", q)
		}
		for _, tid := range ts {
			if !targetSet[tid] {
				t.Errorf("truth target %s for %s not in Targets", tid, q)
			}
		}
	}
	if s.KB == nil || s.Lexicon == nil {
		t.Error("KB and Lexicon must be non-nil")
	}
	if len(s.General) == 0 {
		t.Error("general corpus empty")
	}
}

func TestIMDbWT(t *testing.T) {
	s, err := IMDb(IMDbConfig{Seed: 1, Movies: 30, WithTitle: true, GeneralSentences: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, s)
	if s.First.Kind != corpus.Table || len(s.First.Columns) != 13 {
		t.Errorf("WT table columns = %d, want 13", len(s.First.Columns))
	}
	if len(s.Queries) != 60 {
		t.Errorf("reviews = %d, want 60", len(s.Queries))
	}
	if s.KB.Len() == 0 {
		t.Error("IMDb KB empty")
	}
	if s.Lexicon.Len() == 0 {
		t.Error("IMDb lexicon empty")
	}
}

func TestIMDbNT(t *testing.T) {
	s, err := IMDb(IMDbConfig{Seed: 1, Movies: 20, WithTitle: false, GeneralSentences: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, s)
	if len(s.First.Columns) != 12 {
		t.Errorf("NT table columns = %d, want 12", len(s.First.Columns))
	}
	for _, c := range s.First.Columns {
		if c == "title" {
			t.Error("NT variant must not have a title column")
		}
	}
}

func TestIMDbDeterministic(t *testing.T) {
	a, _ := IMDb(IMDbConfig{Seed: 7, Movies: 10, GeneralSentences: 50})
	b, _ := IMDb(IMDbConfig{Seed: 7, Movies: 10, GeneralSentences: 50})
	for i := range a.Second.Docs {
		if a.Second.Docs[i].Text() != b.Second.Docs[i].Text() {
			t.Fatal("same seed produced different reviews")
		}
	}
	c, _ := IMDb(IMDbConfig{Seed: 8, Movies: 10, GeneralSentences: 50})
	same := true
	for i := range a.Second.Docs {
		if a.Second.Docs[i].Text() != c.Second.Docs[i].Text() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical reviews")
	}
}

func TestIMDbReviewsMentionTheirMovie(t *testing.T) {
	s, err := IMDb(IMDbConfig{Seed: 3, Movies: 25, WithTitle: true, GeneralSentences: 50})
	if err != nil {
		t.Fatal(err)
	}
	// At least 60% of reviews must share a token with their target tuple:
	// matching must be possible but not trivial.
	hits := 0
	for _, q := range s.Queries {
		qd, _ := s.Second.Doc(q)
		td, _ := s.First.Doc(s.Truth[q][0])
		qTokens := map[string]bool{}
		for _, tok := range strings.Fields(strings.ToLower(qd.Text())) {
			qTokens[tok] = true
		}
		shared := false
		for _, tok := range strings.Fields(strings.ToLower(td.Text())) {
			if qTokens[tok] {
				shared = true
				break
			}
		}
		if shared {
			hits++
		}
	}
	if frac := float64(hits) / float64(len(s.Queries)); frac < 0.6 {
		t.Errorf("only %.2f of reviews share tokens with their tuple", frac)
	}
}

func TestCoronaGen(t *testing.T) {
	s, err := Corona(CoronaConfig{Seed: 1, Countries: 10, Months: 6, GenClaims: 40, GeneralSentences: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, s)
	if s.Name != "corona-gen" {
		t.Errorf("name = %s", s.Name)
	}
	if s.First.Len() != 10*6*7 {
		t.Errorf("tuples = %d, want 420", s.First.Len())
	}
	if len(s.Queries) != 40 {
		t.Errorf("claims = %d", len(s.Queries))
	}
}

func TestCoronaUsrHasTypos(t *testing.T) {
	s, err := Corona(CoronaConfig{Seed: 5, Countries: 10, Months: 4, UsrClaims: 40, GeneralSentences: 100}, true)
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, s)
	if s.Name != "corona-usr" {
		t.Errorf("name = %s", s.Name)
	}
	// The lexicon must have collected typo synonyms.
	if s.Lexicon.Len() == 0 {
		t.Error("user split produced no typo lexicon entries")
	}
}

func TestCoronaComparativeClaims(t *testing.T) {
	s, err := Corona(CoronaConfig{Seed: 2, Countries: 12, Months: 6, GenClaims: 120, GeneralSentences: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, ts := range s.Truth {
		if len(ts) == 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no comparative (two-row) claims generated")
	}
}

func TestTypoWord(t *testing.T) {
	r := newRng(1)
	for i := 0; i < 50; i++ {
		w := typoWord(r, "france")
		if w == "" {
			t.Fatal("empty typo")
		}
	}
	if typoWord(r, "us") != "us" {
		t.Error("short words must pass through")
	}
}

func TestAudit(t *testing.T) {
	s, err := Audit(AuditConfig{Seed: 1, Level1: 4, ConceptsPerCategory: 8, Documents: 40, GeneralSentences: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, s)
	if s.First.Kind != corpus.Structured {
		t.Fatalf("first corpus kind = %v", s.First.Kind)
	}
	// Taxonomy paths: every concept reaches the root.
	paths := s.First.Paths()
	for _, id := range s.Targets {
		p := paths[id]
		if len(p) < 3 || p[0] != "tax:root" {
			t.Errorf("concept %s has path %v", id, p)
		}
	}
	// Truth sizes follow the 40%-one-concept distribution loosely.
	ones := 0
	for _, ts := range s.Truth {
		if len(ts) == 1 {
			ones++
		}
	}
	if ones == 0 || ones == len(s.Truth) {
		t.Errorf("degenerate truth-size distribution: %d/%d single", ones, len(s.Truth))
	}
}

func TestAuditAcronymsInLexicon(t *testing.T) {
	s, err := Audit(AuditConfig{Seed: 2, Level1: 6, ConceptsPerCategory: 12, Documents: 30, GeneralSentences: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s.Lexicon.Len() == 0 {
		t.Skip("no acronym concepts drawn at this seed/size")
	}
	found := false
	for _, p := range s.Lexicon.SynonymPairs() {
		if _, ok := auditAcronyms[p[0]]; ok {
			found = true
		}
	}
	if !found {
		t.Error("lexicon has entries but no acronym pairs")
	}
}

func TestSnopesAndPolitifact(t *testing.T) {
	sn, err := Snopes(1)
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, sn)
	po, err := Politifact(1)
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, po)
	if po.First.Len() <= sn.First.Len() {
		t.Error("politifact must have the larger fact pool")
	}

	// Overlap asymmetry: snopes claims share more tokens with their fact.
	overlap := func(s *Scenario) float64 {
		total, shared := 0, 0
		for _, q := range s.Queries {
			qd, _ := s.Second.Doc(q)
			fd, _ := s.First.Doc(s.Truth[q][0])
			qt := map[string]bool{}
			for _, tok := range strings.Fields(qd.Text()) {
				qt[tok] = true
			}
			for _, tok := range strings.Fields(fd.Text()) {
				total++
				if qt[tok] {
					shared++
				}
			}
		}
		return float64(shared) / float64(total)
	}
	if overlap(sn) <= overlap(po) {
		t.Errorf("snopes overlap %.3f <= politifact %.3f", overlap(sn), overlap(po))
	}
}

func TestSTSPairsGrading(t *testing.T) {
	pairs := STSPairs(STSConfig{Seed: 1, Pairs: 300})
	if len(pairs) != 300 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Token overlap must increase with score on average.
	overlapByScore := map[int][]float64{}
	for _, p := range pairs {
		lt := map[string]bool{}
		for _, tok := range strings.Fields(p.Left) {
			lt[tok] = true
		}
		shared, total := 0, 0
		for _, tok := range strings.Fields(p.Right) {
			total++
			if lt[tok] {
				shared++
			}
		}
		if total > 0 {
			overlapByScore[p.Score] = append(overlapByScore[p.Score], float64(shared)/float64(total))
		}
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(overlapByScore[5]) <= mean(overlapByScore[0]) {
		t.Errorf("score-5 overlap %.2f <= score-0 overlap %.2f",
			mean(overlapByScore[5]), mean(overlapByScore[0]))
	}
	if mean(overlapByScore[4]) <= mean(overlapByScore[1]) {
		t.Errorf("score-4 overlap %.2f <= score-1 overlap %.2f",
			mean(overlapByScore[4]), mean(overlapByScore[1]))
	}
}

func TestSTSThresholds(t *testing.T) {
	k2, err := STS(STSConfig{Seed: 1, Pairs: 300, GeneralSentences: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, k2)
	k3, err := STS(STSConfig{Seed: 1, Pairs: 300, GeneralSentences: 100}, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkScenarioInvariants(t, k3)
	if len(k3.Queries) >= len(k2.Queries) {
		t.Errorf("k=3 (%d pairs) must be smaller than k=2 (%d)", len(k3.Queries), len(k2.Queries))
	}
}

func TestGeneralCorpus(t *testing.T) {
	g := GeneralCorpus(1, 200)
	if len(g) != 200 {
		t.Fatalf("sentences = %d", len(g))
	}
	vocab := map[string]bool{}
	for _, s := range g {
		if len(s) == 0 {
			t.Fatal("empty sentence")
		}
		for _, w := range s {
			vocab[w] = true
		}
	}
	// Genre synonyms co-occur (pre-trained knowledge the paper exploits).
	if !vocab["comedy"] && !vocab["drama"] {
		t.Error("general corpus missing genre words")
	}
	// Domain-specific audit concepts appear only in rare, generic-context
	// sentences (weak pre-trained coverage, not zero and not structured).
	auditSentences := 0
	for _, s := range g {
		for _, w := range s {
			if w == "materiality" || w == "vouching" || w == "workpaper" ||
				w == "sampling" || w == "ledger" {
				auditSentences++
				break
			}
		}
	}
	if auditSentences > len(g)/8 {
		t.Errorf("audit terms too frequent in general corpus: %d of %d sentences",
			auditSentences, len(g))
	}
}

func TestScenarioTruthSet(t *testing.T) {
	s := &Scenario{Truth: map[string][]string{"q": {"a", "b"}}}
	ts := s.TruthSet("q")
	if !ts["a"] || !ts["b"] || len(ts) != 2 {
		t.Errorf("TruthSet = %v", ts)
	}
	if len(s.TruthSet("missing")) != 0 {
		t.Error("missing query must give empty set")
	}
}

func TestPickHelpers(t *testing.T) {
	r := newRng(1)
	list := []int{1, 2, 3, 4, 5}
	got := pickN(r, list, 3)
	if len(got) != 3 {
		t.Errorf("pickN = %v", got)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Error("pickN returned duplicates")
		}
		seen[v] = true
	}
	all := pickN(r, list, 10)
	if len(all) != 5 {
		t.Errorf("pickN over-request = %v", all)
	}
	sh := shuffled(r, list)
	if len(sh) != 5 {
		t.Errorf("shuffled = %v", sh)
	}
	if &sh[0] == &list[0] {
		t.Error("shuffled must copy")
	}
}
