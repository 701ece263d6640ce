package tdmatch

import "testing"

// Tests for the §VII future-work extensions: walk bias and node2vec
// walks. Blocking runs through internal/match and internal/experiments.

func TestBuildWithWalkBias(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.WalkBias = &WalkBias{Attribute: 0.1}
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Biased walks must still produce a usable model.
	correct := 0
	want := map[string]string{
		"reviews:p1": "movies:t0",
		"reviews:p2": "movies:t2",
		"reviews:p3": "movies:t3",
	}
	for q, target := range want {
		got, err := model.TopK(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 1 && got[0].ID == target {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("walk-biased model matched only %d/3", correct)
	}
}

func TestBuildWithNode2VecWalks(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.ReturnParam = 2
	cfg.InOutParam = 0.5
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"reviews:p1": "movies:t0",
		"reviews:p2": "movies:t2",
		"reviews:p3": "movies:t3",
	}
	correct := 0
	for q, target := range want {
		got, err := model.TopK(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 1 && got[0].ID == target {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("node2vec model matched only %d/3", correct)
	}
}

func TestKindWeightsTranslation(t *testing.T) {
	if kindWeights(nil) != nil {
		t.Error("nil bias must give nil weights")
	}
	w := kindWeights(&WalkBias{Attribute: 0.5, External: 2})
	if len(w) != 2 {
		t.Errorf("weights = %v", w)
	}
	// Unspecified kinds must be absent (default weight 1 in the walker).
	w2 := kindWeights(&WalkBias{Metadata: 3})
	if len(w2) != 3 { // tuple, snippet, concept
		t.Errorf("metadata weights = %v", w2)
	}
}
