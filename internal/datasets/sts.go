package datasets

import (
	"fmt"
	"strings"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/kb"
)

// STSConfig sizes the semantic-textual-similarity scenario (paper §V-C,
// Table VI): sentence pairs with graded similarity 0-5, evaluated as a
// matching task at score thresholds k=2 and k=3.
type STSConfig struct {
	Seed int64
	// Pairs is the number of generated sentence pairs before thresholding.
	Pairs            int
	GeneralSentences int
}

func (c STSConfig) withDefaults() STSConfig {
	if c.Pairs <= 0 {
		c.Pairs = 600
	}
	if c.GeneralSentences <= 0 {
		c.GeneralSentences = 4000
	}
	return c
}

// STSPair is one graded sentence pair.
type STSPair struct {
	Left, Right string
	Score       int // 0 (dissimilar) .. 5 (equivalent)
}

// STSPairs generates graded pairs: the right sentence is derived from the
// left with perturbation strength inversely proportional to the score
// (5 = near copy, 3 = same scene different detail, 0 = unrelated topic).
func STSPairs(cfg STSConfig) []STSPair {
	cfg = cfg.withDefaults()
	r := newRng(cfg.Seed)
	out := make([]STSPair, cfg.Pairs)
	for i := range out {
		score := r.Intn(6)
		topic := pick(r, stsTopics)
		left := stsSentence(r, topic)
		var right string
		switch {
		case score == 5:
			right = left
			if r.maybe(0.5) { // near copy: reorder
				right = strings.Join(shuffled(r, strings.Fields(left)), " ")
			}
		case score >= 3:
			// Same topic, overlapping words, some replaced.
			right = stsPerturb(r, left, topic, 6-score)
		case score == 2:
			// Same topic, mostly different words.
			right = stsSentence(r, topic)
		default:
			// Different topic entirely.
			right = stsSentence(r, pick(r, stsTopics))
		}
		out[i] = STSPair{Left: left, Right: right, Score: score}
	}
	return out
}

func stsSentence(r rng, topic []string) string {
	words := append([]string{}, pickN(r, topic, 3+r.Intn(3))...)
	words = append(words, pickN(r, generalWords, 2+r.Intn(3))...)
	return strings.Join(shuffled(r, words), " ")
}

// stsPerturb replaces `strength` words of the sentence with other topic or
// general words.
func stsPerturb(r rng, sent string, topic []string, strength int) string {
	words := strings.Fields(sent)
	for i := 0; i < strength && len(words) > 0; i++ {
		pos := r.Intn(len(words))
		if r.maybe(0.5) {
			words[pos] = pick(r, topic)
		} else {
			words[pos] = pick(r, generalWords)
		}
	}
	return strings.Join(words, " ")
}

// STS materializes the matching scenario at threshold k: pairs scoring >= k
// are true matches; all right-hand sentences are candidate targets.
// Mirroring the paper, the k=2 dataset is larger than the k=3 one.
func STS(cfg STSConfig, k int) (*Scenario, error) {
	pairs := STSPairs(cfg)
	kept := pairs[:0]
	for _, p := range pairs {
		if p.Score >= k {
			kept = append(kept, p)
		}
	}
	var leftTexts, leftIDs, rightTexts, rightIDs []string
	truth := map[string][]string{}
	for i, p := range kept {
		lid := fmt.Sprintf("left:p%d", i)
		rid := fmt.Sprintf("right:t%d", i)
		leftTexts = append(leftTexts, p.Left)
		leftIDs = append(leftIDs, lid)
		rightTexts = append(rightTexts, p.Right)
		rightIDs = append(rightIDs, rid)
		truth[lid] = []string{rid}
	}
	rights, err := corpus.NewText("right", rightTexts, rightIDs)
	if err != nil {
		return nil, err
	}
	lefts, err := corpus.NewText("left", leftTexts, leftIDs)
	if err != nil {
		return nil, err
	}
	// ConceptNet substitute: topic-word relations.
	mem := kb.NewMemory()
	for _, topic := range stsTopics {
		for i := 0; i+1 < len(topic); i++ {
			mem.Add(topic[i], "relatedTo", topic[i+1])
		}
	}
	return &Scenario{
		Name:    fmt.Sprintf("sts-k%d", k),
		First:   rights,
		Second:  lefts,
		Queries: leftIDs,
		Targets: rightIDs,
		Truth:   truth,
		KB:      mem,
		Lexicon: kb.NewLexicon(),
		General: GeneralCorpus(cfg.Seed+505, cfg.withDefaults().GeneralSentences),
	}, nil
}
