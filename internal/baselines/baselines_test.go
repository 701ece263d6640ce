package baselines

import (
	"fmt"
	"math"
	"testing"

	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/metrics"
	"github.com/tdmatch/tdmatch/internal/pretrained"
)

// smallScenario caches a tiny IMDb scenario plus pretrained model for all
// baseline tests.
var (
	cachedScenario *datasets.Scenario
	cachedModel    *pretrained.Model
)

func scenario(t *testing.T) (*datasets.Scenario, *pretrained.Model) {
	t.Helper()
	if cachedScenario == nil {
		s, err := datasets.IMDb(datasets.IMDbConfig{Seed: 11, Movies: 30, WithTitle: true, GeneralSentences: 800})
		if err != nil {
			t.Fatal(err)
		}
		pm, err := pretrained.Train(s.General, embed.Config{Dim: 24, Window: 4, Epochs: 2, Seed: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		cachedScenario, cachedModel = s, pm
	}
	return cachedScenario, cachedModel
}

func mrrOf(t *testing.T, s *datasets.Scenario, r Ranker) float64 {
	t.Helper()
	results := RankAll(r, s.Queries, 20)
	sum := metrics.EvaluateRanking(results, s.Truth, []int{1})
	return sum.MRR
}

func TestTFIDFVectorizer(t *testing.T) {
	docs := map[string]string{
		"d1": "the quick brown fox",
		"d2": "the lazy dog sleeps",
		"d3": "quick dog runs fast",
	}
	tf := NewTFIDF(docs)
	v1 := tf.Vector("d1")
	if len(v1) == 0 {
		t.Fatal("empty vector")
	}
	// Unit norm.
	var norm float64
	for _, w := range v1 {
		norm += w * w
	}
	if norm < 0.99 || norm > 1.01 {
		t.Errorf("norm = %f", norm)
	}
	// Query similarity: "quick fox" closer to d1 than to d2.
	q := tf.Embed("quick fox animal")
	if CosineSparse(q, tf.Vector("d1")) <= CosineSparse(q, tf.Vector("d2")) {
		t.Error("tf-idf ranking wrong")
	}
	if tf.Vector("missing") != nil {
		t.Error("missing doc must be nil")
	}
}

func TestCosineSparse(t *testing.T) {
	a := map[string]float64{"x": 0.6, "y": 0.8}
	b := map[string]float64{"x": 1.0}
	if got := CosineSparse(a, b); got != 0.6 {
		t.Errorf("CosineSparse = %f", got)
	}
	if got := CosineSparse(b, a); got != 0.6 {
		t.Error("CosineSparse must be symmetric")
	}
	if CosineSparse(nil, a) != 0 {
		t.Error("nil vector must score 0")
	}
}

func TestBM25(t *testing.T) {
	docs := map[string]string{
		"d1": "pulp fiction tarantino movie",
		"d2": "sixth sense shyamalan movie",
		"d3": "generic words about cinema",
	}
	idx := NewBM25(docs)
	if idx.Score("tarantino film", "d1") <= idx.Score("tarantino film", "d2") {
		t.Error("BM25 must prefer the doc containing the query term")
	}
	if idx.Score("anything", "missing") != 0 {
		t.Error("missing doc must score 0")
	}
	// Common words score less than rare words.
	if idx.Score("movie", "d1") >= idx.Score("pulp", "d1") {
		t.Error("idf weighting missing")
	}
}

func TestSBEBaseline(t *testing.T) {
	s, pm := scenario(t)
	b, err := NewSBE(s, pm)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "S-BE" {
		t.Error("name wrong")
	}
	ranked := b.Rank(s.Queries[0], 5)
	if len(ranked) != 5 {
		t.Fatalf("Rank returned %d", len(ranked))
	}
	// Scores must be sorted.
	for i := 0; i+1 < len(ranked); i++ {
		if ranked[i].Score < ranked[i+1].Score {
			t.Error("scores not descending")
		}
	}
}

func TestW2VecBaseline(t *testing.T) {
	s, _ := scenario(t)
	b, err := NewW2Vec(s, embed.Config{Dim: 24, Window: 3, Epochs: 2, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "W2VEC" {
		t.Error("name wrong")
	}
	if got := b.Rank(s.Queries[1], 3); len(got) != 3 {
		t.Errorf("Rank = %d results", len(got))
	}
}

func TestD2VecBaseline(t *testing.T) {
	s, _ := scenario(t)
	b, err := NewD2Vec(s, embed.Config{Dim: 24, Epochs: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "D2VEC" {
		t.Error("name wrong")
	}
	if got := b.Rank(s.Queries[0], 4); len(got) != 4 {
		t.Errorf("Rank = %d results", len(got))
	}
	if got := b.Rank("nonexistent", 4); got != nil {
		t.Error("unknown query must rank nil")
	}
}

func TestBM25Ranker(t *testing.T) {
	s, _ := scenario(t)
	b := NewBM25Ranker(s)
	if b.Name() != "BM25" {
		t.Error("name wrong")
	}
	res := mrrOf(t, s, b)
	// Lexical baseline must beat random guessing on IMDb-WT.
	if res < 1.0/float64(len(s.Targets)) {
		t.Errorf("BM25 MRR = %f, below random", res)
	}
}

func TestFeaturizerBasics(t *testing.T) {
	s, pm := scenario(t)
	for _, set := range []FeatureSet{FeaturesLexical, FeaturesTabular, FeaturesEmbedding, FeaturesFull} {
		f, err := NewFeaturizer(s, pm, set)
		if err != nil {
			t.Fatal(err)
		}
		q := s.Queries[0]
		pos := s.Truth[q][0]
		feats := f.Features(q, pos)
		if len(feats) != f.Dim() {
			t.Fatalf("set %d: features len %d != dim %d", set, len(feats), f.Dim())
		}
		if feats[0] != 1 {
			t.Error("bias feature must be 1")
		}
		for i, v := range feats {
			if v < -1.0001 || v > 1.0001 {
				t.Errorf("feature %d out of range: %f", i, v)
			}
		}
	}
}

func TestFeaturesDiscriminate(t *testing.T) {
	s, pm := scenario(t)
	f, err := NewFeaturizer(s, pm, FeaturesFull)
	if err != nil {
		t.Fatal(err)
	}
	// Averaged over queries, the true pair must have higher jaccard
	// (feature 1) than a fixed wrong pair.
	var posSum, negSum float64
	for _, q := range s.Queries {
		pos := s.Truth[q][0]
		neg := s.Targets[0]
		if neg == pos {
			neg = s.Targets[1]
		}
		posSum += f.Features(q, pos)[1]
		negSum += f.Features(q, neg)[1]
	}
	if posSum <= negSum {
		t.Errorf("features do not separate: pos %.3f <= neg %.3f", posSum, negSum)
	}
}

func TestRankStar(t *testing.T) {
	s, pm := scenario(t)
	b, err := NewRank(s, pm, SupervisedConfig{Seed: 1, Epochs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "RANK*" {
		t.Error("name wrong")
	}
	mrr := mrrOf(t, s, b)
	random := 1.0 / float64(len(s.Targets))
	if mrr < 4*random {
		t.Errorf("RANK* MRR %.3f not clearly above random %.3f", mrr, random)
	}
}

func TestBinaryClassifiers(t *testing.T) {
	s, pm := scenario(t)
	for _, build := range []func(*datasets.Scenario, *pretrained.Model, SupervisedConfig) (*PairModel, error){
		NewDitto, NewTapas, NewDeepMatcher,
	} {
		b, err := build(s, pm, SupervisedConfig{Seed: 2, Epochs: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := b.Rank(s.Queries[0], 5)
		if len(got) != 5 {
			t.Errorf("%s: Rank = %d results", b.Name(), len(got))
		}
	}
}

func TestPairModelUnknownQueryFallsBack(t *testing.T) {
	s, pm := scenario(t)
	b, err := NewDitto(s, pm, SupervisedConfig{Seed: 3, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Queries missing from the fold map use fold 0 and must not panic.
	if got := b.Rank(s.Queries[0], 2); len(got) != 2 {
		t.Error("rank failed")
	}
}

func TestMultiLabel(t *testing.T) {
	s, err := datasets.Audit(datasets.AuditConfig{Seed: 5, Level1: 4, ConceptsPerCategory: 8, Documents: 60, GeneralSentences: 200})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMultiLabel(s, SupervisedConfig{Seed: 1, Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "L-BE*" {
		t.Error("name wrong")
	}
	results := RankAll(m, s.Queries, 10)
	summary := metrics.EvaluateRanking(results, s.Truth, []int{1, 10})
	random := 1.0 / float64(len(s.Targets))
	if summary.MRR <= random {
		t.Errorf("L-BE* MRR %.4f at or below random %.4f", summary.MRR, random)
	}
}

func TestRankAllShape(t *testing.T) {
	s, _ := scenario(t)
	b := NewBM25Ranker(s)
	res := RankAll(b, s.Queries[:3], 7)
	if len(res) != 3 {
		t.Fatalf("RankAll = %d queries", len(res))
	}
	for q, ids := range res {
		if len(ids) != 7 {
			t.Errorf("query %s got %d results", q, len(ids))
		}
	}
}

// TestSupervisedScoresAreAFunctionOfTheSeed trains the RANK*, DITTO*,
// TAPAS* and L-BE* stand-ins twice from the same seeds, the pretrained
// model at Workers 1, and requires every ranking to agree in IDs and in
// the raw float bits of its scores: no sum that feeds a feature, a
// weight or a score may depend on map iteration order.
func TestSupervisedScoresAreAFunctionOfTheSeed(t *testing.T) {
	run := func() map[string][]string {
		s, err := datasets.IMDb(datasets.IMDbConfig{Seed: 11, Movies: 12, WithTitle: true, GeneralSentences: 200})
		if err != nil {
			t.Fatal(err)
		}
		pm, err := pretrained.Train(s.General, embed.Config{Dim: 24, Window: 4, Epochs: 2, Seed: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := SupervisedConfig{Seed: 3, Epochs: 2}
		var rankers []Ranker
		for _, build := range []func(*datasets.Scenario, *pretrained.Model, SupervisedConfig) (*PairModel, error){NewRank, NewDitto, NewTapas} {
			r, err := build(s, pm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rankers = append(rankers, r)
		}
		ml, err := NewMultiLabel(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for _, r := range append(rankers, ml) {
			for _, q := range s.Queries {
				for _, sc := range r.Rank(q, 5) {
					out[r.Name()] = append(out[r.Name()], fmt.Sprintf("%s %s %#x", q, sc.ID, math.Float64bits(sc.Score)))
				}
			}
		}
		return out
	}
	first, second := run(), run()
	for name, want := range first {
		got := second[name]
		i := 0
		for i < len(want) && i < len(got) && got[i] == want[i] {
			i++
		}
		if i < len(want) || i < len(got) {
			t.Errorf("%s: the rerun diverges at ranked entry %d (%d and %d entries):\n%q\n%q",
				name, i, len(want), len(got), want[i:min(i+1, len(want))], got[i:min(i+1, len(got))])
		}
	}
}
