// Package pretrained provides the stand-in for the paper's pre-trained
// sentence encoder: SentenceBERT, the unsupervised S-BE baseline (§V),
// and the pre-trained features of the supervised baselines. In the
// offline reproduction, a Word2Vec model is trained once on a large
// synthetic "general corpus" generated from the scenario's world
// vocabulary plus generic filler text; it therefore behaves like a real
// pre-trained model — strong on generic words that the general corpus
// covers, blind to domain-specific vocabulary — which is the contrast the
// paper's experiments measure. Data nodes are merged by the scenario
// lexicon (kb.Lexicon), not by embedding similarity (see README).
package pretrained

import (
	"strings"

	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/textproc"
)

// Model is a pre-trained word-embedding model with sentence aggregation.
type Model struct {
	tm  *embed.TextModel
	pre textproc.Preprocessor
}

// Train fits the model on a general corpus of tokenized sentences;
// SentenceVector runs raw text through the default preprocessor before
// the lookup.
func Train(sentences [][]string, cfg embed.Config) (*Model, error) {
	tm, err := embed.TrainText(sentences, 2, cfg)
	if err != nil {
		return nil, err
	}
	return &Model{tm: tm, pre: textproc.DefaultPreprocessor()}, nil
}

// Dim returns the vector dimensionality.
func (m *Model) Dim() int { return m.tm.Model.Dim }

// TermVector embeds a (possibly multi-token) term as the mean of its known
// token vectors; nil when no token is known.
func (m *Model) TermVector(term string) []float32 {
	toks := strings.Fields(term)
	var vecs [][]float32
	for _, t := range toks {
		if v := m.tm.Vector(t); v != nil {
			vecs = append(vecs, v)
		}
	}
	if len(vecs) == 0 {
		return nil
	}
	return embed.Mean(vecs, m.tm.Model.Dim)
}

// SentenceVector embeds raw text: pre-process, look up, average. It is the
// S-BE substitute used as the unsupervised pre-trained baseline.
func (m *Model) SentenceVector(text string) []float32 {
	return m.TermVector(strings.Join(m.pre.Tokens(text), " "))
}
