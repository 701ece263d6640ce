package pretrained

import (
	"testing"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// generalCorpus simulates a pre-training corpus where movie words co-occur
// and health words co-occur.
func generalCorpus() [][]string {
	var sents [][]string
	for i := 0; i < 150; i++ {
		sents = append(sents,
			[]string{"movi", "director", "actor", "film", "star"},
			[]string{"film", "star", "movi", "actor", "director"},
			[]string{"virus", "case", "death", "countri", "spread"},
			[]string{"spread", "countri", "virus", "death", "case"},
		)
	}
	return sents
}

func trainModel(t *testing.T) *Model {
	t.Helper()
	m, err := Train(generalCorpus(), embed.Config{Dim: 16, Window: 3, Epochs: 3, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelClustersDomains(t *testing.T) {
	m := trainModel(t)
	movi := m.TermVector("movi")
	if embed.Cosine(movi, m.TermVector("actor")) <= embed.Cosine(movi, m.TermVector("virus")) {
		t.Error("pre-trained model failed to cluster domains")
	}
	if m.Dim() != 16 {
		t.Errorf("Dim=%d", m.Dim())
	}
}

func TestModelUnknownToken(t *testing.T) {
	m := trainModel(t)
	if m.TermVector("pdca") != nil {
		t.Error("domain acronym must be unknown to the general model")
	}
	if m.TermVector("pdca zzz") != nil {
		t.Error("fully unknown term must be nil")
	}
}

func TestTermVectorMultiToken(t *testing.T) {
	m := trainModel(t)
	v := m.TermVector("movi director")
	if v == nil {
		t.Fatal("multi-token term vector nil")
	}
	// Partial knowledge: one known token suffices.
	if m.TermVector("movi zzzunknown") == nil {
		t.Error("partially known term must embed")
	}
}

func TestSentenceVector(t *testing.T) {
	m := trainModel(t)
	// Raw text path applies the preprocessor ("movies" stems to "movi").
	v := m.SentenceVector("The movies and their directors")
	if v == nil {
		t.Fatal("SentenceVector nil for known stems")
	}
	sim := embed.Cosine(v, m.TermVector("movi"))
	if sim <= 0.3 {
		t.Errorf("sentence vector far from its domain: %f", sim)
	}
}
