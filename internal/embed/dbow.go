package embed

import "fmt"

// TrainDBOW learns document vectors with the PV-DBOW objective (the
// Doc2Vec variant the paper's D2VEC baseline uses, §V): each document has
// one learned vector that is trained to predict the tokens it contains via
// negative sampling, ignoring word order.
//
// docs[i] is the token-ID sequence of document i; the returned matrix has
// one row per document.
func TrainDBOW(docs [][]int32, vocabSize int, cfg Config) ([][]float32, error) {
	if vocabSize <= 0 {
		return nil, fmt.Errorf("embed: vocabSize must be positive, got %d", vocabSize)
	}
	cfg = cfg.withDefaults()

	counts := make([]int64, vocabSize)
	var total int64
	for di, d := range docs {
		for _, t := range d {
			if t < 0 || int(t) >= vocabSize {
				return nil, fmt.Errorf("embed: token %d out of range in document %d", t, di)
			}
			counts[t]++
			total++
		}
	}
	// Document vectors live in one flat arena, like Train's syn0.
	dim := cfg.Dim
	docArena := make([]float32, len(docs)*dim)
	rng := newXorshift(uint64(cfg.Seed) ^ 0xd0c2)
	for i := range docArena {
		docArena[i] = (rng.float() - 0.5) / float32(dim)
	}
	docVecs := make([][]float32, len(docs))
	for i := range docVecs {
		docVecs[i] = docArena[i*dim : (i+1)*dim : (i+1)*dim]
	}
	if total == 0 {
		return docVecs, nil
	}
	syn1 := make([]float32, vocabSize*dim)
	table := unigramTable(counts)
	sc := newPairScratch(dim, cfg.Negative, false)

	lr := float32(cfg.LR)
	minLR := float32(cfg.LR / 10000)
	var processed, target int64
	target = total * int64(cfg.Epochs)
	for ep := 0; ep < cfg.Epochs; ep++ {
		for di, d := range docs {
			dv := docVecs[di]
			for _, tok := range d {
				if processed%10000 == 0 {
					frac := float32(float64(processed) / float64(target))
					lr = float32(cfg.LR) * (1 - frac)
					if lr < minLR {
						lr = minLR
					}
				}
				processed++
				trainPair(dv, syn1, dim, tok, table, cfg.Negative, lr, &rng, sc)
			}
		}
	}
	return docVecs, nil
}
