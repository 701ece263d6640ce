package embed

// Vocab maps string tokens to dense int32 IDs for training text corpora
// (baselines train directly on document tokens rather than graph nodes).
type Vocab struct {
	byTok  map[string]int32
	tokens []string
	counts []int64
}

// BuildVocab scans sentences and assigns IDs to tokens occurring at least
// minCount times (minCount <= 1 keeps everything), in first-seen order.
func BuildVocab(sents [][]string, minCount int) *Vocab {
	freq := make(map[string]int64)
	order := make([]string, 0, 256)
	for _, s := range sents {
		for _, t := range s {
			if freq[t] == 0 {
				order = append(order, t)
			}
			freq[t]++
		}
	}
	v := &Vocab{byTok: make(map[string]int32)}
	for _, t := range order {
		if int(freq[t]) < minCount {
			continue
		}
		v.byTok[t] = int32(len(v.tokens))
		v.tokens = append(v.tokens, t)
		v.counts = append(v.counts, freq[t])
	}
	return v
}

// Size returns the number of vocabulary entries.
func (v *Vocab) Size() int { return len(v.tokens) }

// ID returns the token's ID, or -1 when out of vocabulary.
func (v *Vocab) ID(tok string) int32 {
	if id, ok := v.byTok[tok]; ok {
		return id
	}
	return -1
}

// Encode converts sentences to ID sequences, dropping OOV tokens.
func (v *Vocab) Encode(sents [][]string) [][]int32 {
	out := make([][]int32, len(sents))
	for i, s := range sents {
		seq := make([]int32, 0, len(s))
		for _, t := range s {
			if id, ok := v.byTok[t]; ok {
				seq = append(seq, id)
			}
		}
		out[i] = seq
	}
	return out
}

// TextModel pairs a trained Model with its Vocab for string lookups.
type TextModel struct {
	Model *Model
	Vocab *Vocab
}

// TrainText builds a vocabulary over the sentences and trains embeddings.
func TrainText(sents [][]string, minCount int, cfg Config) (*TextModel, error) {
	v := BuildVocab(sents, minCount)
	if v.Size() == 0 {
		return &TextModel{Model: &Model{Dim: cfg.withDefaults().Dim}, Vocab: v}, nil
	}
	m, err := Train(v.Encode(sents), v.Size(), cfg)
	if err != nil {
		return nil, err
	}
	return &TextModel{Model: m, Vocab: v}, nil
}

// Vector returns the embedding of a token, or nil when unknown.
func (tm *TextModel) Vector(tok string) []float32 {
	id := tm.Vocab.ID(tok)
	if id < 0 {
		return nil
	}
	return tm.Model.Vector(id)
}

// SentenceVector embeds a token sequence as the mean of its known token
// vectors — the aggregation the paper uses for longer texts (§V,
// "we generate embeddings for longer texts with the mean of the vectors of
// their tokens").
func (tm *TextModel) SentenceVector(tokens []string) []float32 {
	var vecs [][]float32
	for _, t := range tokens {
		if v := tm.Vector(t); v != nil {
			vecs = append(vecs, v)
		}
	}
	return Mean(vecs, tm.Model.Dim)
}
