package embed

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Mode selects the Word2Vec training objective.
type Mode uint8

const (
	// SkipGram predicts context tokens from the center token. The paper
	// uses Skip-gram with window 3 for text-to-data matching (§V).
	SkipGram Mode = iota
	// CBOW predicts the center token from the averaged context. The paper
	// uses CBOW with window 15 for text-oriented tasks (§V).
	CBOW
)

// String names the mode.
func (m Mode) String() string {
	if m == CBOW {
		return "cbow"
	}
	return "skipgram"
}

// Config parametrizes training. Zero fields fall back to defaults
// (Dim 100, Window 5, Negative 5, Epochs 5, LR 0.025).
type Config struct {
	Dim      int
	Window   int
	Negative int
	Epochs   int
	// LR is the starting learning rate, decayed linearly to LR/10k over
	// the token stream as in the reference implementation.
	LR      float64
	Mode    Mode
	Seed    int64
	Workers int
	// Subsample, when > 0, is the threshold t of the frequent-token
	// down-sampling probability 1 - sqrt(t/freq).
	Subsample float64
	// Initial, when non-nil, warm-starts training from a previously
	// trained model: its rows (both the embedding arena and the output
	// weights) seed the first len(Initial.Vecs) vocabulary rows, rows
	// beyond them are freshly initialized, and training fine-tunes the
	// combined arena over the given sequences. This is the incremental
	// ingest path: sequences seeded from a delta's neighborhood adjust
	// new rows into the existing embedding space without retraining it.
	Initial *Model
	// InPlace, with Initial set, fine-tunes Initial's own arenas instead
	// of copying them: the arena is grown (with amortizing headroom) to
	// the new vocabulary size and TrainPacked returns Initial itself.
	// Output is bit-identical to the copying warm start, but the
	// per-call cost is O(delta + new rows) instead of O(vocabulary) — the
	// segmented-ingest hot path. The caller must own Initial exclusively:
	// nothing may read its arenas while training runs, and the returned
	// model aliases them. Ignored when Initial is nil.
	InPlace bool
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 100
	}
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.Negative <= 0 {
		c.Negative = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.LR <= 0 {
		c.LR = 0.025
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// TrainTokens is the number of corpus positions TrainPacked visits for
// seqs under c: the corpus's tokens times the effective epoch count
// (before subsampling) — the denominator of a tokens-per-second rate.
func (c Config) TrainTokens(seqs Sequences) int64 {
	return int64(seqs.NumTokens()) * int64(c.withDefaults().Epochs)
}

// Model holds trained embeddings indexed by token ID. After training,
// Arena is the flat row-major storage (token i's vector occupies
// Arena[i*Dim : (i+1)*Dim]) and every Vecs entry is a view into it, so
// downstream consumers (the serving indexes, persistence) can alias one
// contiguous block instead of chasing per-token allocations. Models
// assembled by hand (tests) may leave Arena nil and fill Vecs directly.
//
// Out retains the output-side weight matrix (syn1) in the same layout.
// It is dead weight for serving, but it is what makes warm-start
// fine-tuning (Config.Initial) meaningful: the trained output rows are
// the anchors new vocabulary rows train against.
type Model struct {
	Dim   int
	Arena []float32
	Vecs  [][]float32
	Out   []float32
}

// Vector returns the embedding of token id (nil when out of range).
func (m *Model) Vector(id int32) []float32 {
	if m == nil || id < 0 || int(id) >= len(m.Vecs) {
		return nil
	}
	return m.Vecs[id]
}

// Similarity returns the cosine similarity of two token embeddings.
func (m *Model) Similarity(a, b int32) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	return Cosine(va, vb)
}

// maxUnigramTableSize caps the negative-sampling table; tableSizeFor
// shrinks it for small vocabularies so the randomly-probed table stays
// cache-resident in the training hot loop.
const maxUnigramTableSize = 1 << 20

// tableSizeFor returns the negative-sampling table size for a vocabulary:
// a power of two (so each draw is a mask, not a modulo) granting at least
// 32 slots per token on average, clamped to [1<<16, 1<<20]. The 3/4-power
// smoothing flattens the frequency distribution enough that 32 slots per
// token preserves sampling fidelity, while a small vocabulary gets a
// table that stays cache-resident instead of thrashing L2 with the full
// 4 MB worst case.
func tableSizeFor(vocab int) int {
	size := 1 << 16
	for size < vocab*32 && size < maxUnigramTableSize {
		size <<= 1
	}
	return size
}

// unigramTable is the negative-sampling distribution: token frequency
// raised to the 3/4 power, as in Mikolov et al.
func unigramTable(counts []int64) []int32 {
	unigramTableSize := tableSizeFor(len(counts))
	table := make([]int32, unigramTableSize)
	var total float64
	pow := func(c int64) float64 {
		return math.Pow(float64(c), 0.75)
	}
	for _, c := range counts {
		if c > 0 {
			total += pow(c)
		}
	}
	if total == 0 {
		for i := range table {
			table[i] = int32(i % len(counts))
		}
		return table
	}
	i := 0
	var cum float64
	for tok, c := range counts {
		if c <= 0 {
			continue
		}
		cum += pow(c) / total
		limit := int(cum * float64(unigramTableSize))
		for ; i < limit && i < unigramTableSize; i++ {
			table[i] = int32(tok)
		}
	}
	for ; i < unigramTableSize; i++ {
		table[i] = table[i-1]
	}
	return table
}

// unigramTableSparse builds the negative-sampling table from a sparse
// token tally — the fine-tune path, where the distinct tokens of a
// delta corpus are a sliver of the vocabulary. The table is sized by
// the distinct-token count (typically the 1<<16 floor, cache-resident)
// and holds the same 3/4-power distribution over the same tokens the
// dense build would produce for that corpus.
func unigramTableSparse(sparse map[int32]int64) []int32 {
	unigramTableSize := tableSizeFor(len(sparse))
	table := make([]int32, unigramTableSize)
	if len(sparse) == 0 {
		return table
	}
	toks := make([]int32, 0, len(sparse))
	for tok := range sparse {
		toks = append(toks, tok)
	}
	// Map iteration order is random; the cumulative fill below must walk
	// tokens in ascending order, like the dense table, for determinism.
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	var total float64
	for _, tok := range toks {
		total += math.Pow(float64(sparse[tok]), 0.75)
	}
	i := 0
	var cum float64
	for _, tok := range toks {
		cum += math.Pow(float64(sparse[tok]), 0.75) / total
		limit := int(cum * float64(unigramTableSize))
		for ; i < limit && i < unigramTableSize; i++ {
			table[i] = tok
		}
	}
	for ; i < unigramTableSize; i++ {
		table[i] = table[i-1]
	}
	return table
}

// Train learns token embeddings from sequences of token IDs in
// [0, vocabSize) — the [][]int32 adapter over TrainPacked for callers
// that materialize their corpus as slice-of-slices.
func Train(seqs [][]int32, vocabSize int, cfg Config) (*Model, error) {
	return TrainPacked(PackSequences(seqs), vocabSize, cfg)
}

// TrainPacked learns token embeddings from a packed token-sequence corpus
// with IDs in [0, vocabSize). It returns an error for invalid input.
// Training is hogwild-parallel across Workers goroutines (set Workers to
// 1 for fully deterministic output). The hot path is allocation-free:
// both weight matrices live in flat stride-addressed arenas, the
// gradient-accumulate and output-update loops are fused into one pass,
// and per-worker scratch buffers (CBOW accumulator, gradient, subsample
// survivors) are reused across sequences and epochs.
func TrainPacked(seqs Sequences, vocabSize int, cfg Config) (*Model, error) {
	if vocabSize <= 0 {
		return nil, fmt.Errorf("embed: vocabSize must be positive, got %d", vocabSize)
	}
	cfg = cfg.withDefaults()

	// A full build tallies token counts into a dense vocabulary-sized
	// array. A warm-start fine-tune trains on a delta corpus whose
	// distinct tokens are a sliver of the vocabulary, so it tallies
	// sparsely — the whole setup stays O(delta tokens) per call instead
	// of O(vocabulary), which is what keeps per-document ingest cost
	// independent of how large the graph has grown.
	fineTune := cfg.Initial != nil
	var counts []int64
	var sparseCounts map[int32]int64
	if fineTune {
		sparseCounts = make(map[int32]int64)
	} else {
		counts = make([]int64, vocabSize)
	}
	nSeqs := seqs.Len()
	for si := 0; si < nSeqs; si++ {
		for _, t := range seqs.Seq(si) {
			if t < 0 || int(t) >= vocabSize {
				return nil, fmt.Errorf("embed: token %d out of range in sequence %d", t, si)
			}
			if fineTune {
				sparseCounts[t]++
			} else {
				counts[t]++
			}
		}
	}
	totalTokens := int64(seqs.NumTokens())
	if totalTokens == 0 && cfg.Initial == nil {
		return &Model{Dim: cfg.Dim, Vecs: make([][]float32, vocabSize)}, nil
	}

	// syn0: input vectors (the embeddings); syn1: output weights. Both are
	// flat row-major arenas — row i at [i*dim : (i+1)*dim]. Under a warm
	// start the leading rows are copied from the initial model (syn1
	// defaults to zero where the initial model did not retain it) and only
	// the appended vocabulary rows get a fresh random initialization.
	dim := cfg.Dim
	var syn0, syn1 []float32
	var inPlace *Model
	syn0Moved := false
	warmFloats := 0
	if cfg.Initial != nil && cfg.Initial.Dim != dim {
		return nil, fmt.Errorf("embed: warm start dim %d != configured dim %d", cfg.Initial.Dim, dim)
	}
	switch {
	case cfg.Initial != nil && cfg.InPlace:
		inPlace = cfg.Initial
		warmFloats = len(inPlace.Arena)
		if warmFloats > vocabSize*dim {
			return nil, fmt.Errorf("embed: warm start holds %d rows but vocabulary shrank to %d", warmFloats/dim, vocabSize)
		}
		// Grow the initial model's own arenas: the warm region is already
		// in place and the extension is zeroed, exactly the state the
		// copying path reaches — so the two paths stay bit-identical.
		syn0, syn0Moved = growFloats(inPlace.Arena, vocabSize*dim)
		syn1, _ = growFloats(inPlace.Out, vocabSize*dim)
	case cfg.Initial != nil:
		syn0 = make([]float32, vocabSize*dim)
		syn1 = make([]float32, vocabSize*dim)
		warmFloats = copy(syn0, cfg.Initial.Arena)
		copy(syn1[:warmFloats], cfg.Initial.Out)
	default:
		syn0 = make([]float32, vocabSize*dim)
		syn1 = make([]float32, vocabSize*dim)
	}
	initRng := newXorshift(uint64(cfg.Seed) ^ 0xabcdef)
	for i := warmFloats; i < len(syn0); i++ {
		syn0[i] = (initRng.float() - 0.5) / float32(dim)
	}

	var table []int32
	if fineTune {
		table = unigramTableSparse(sparseCounts)
	} else {
		table = unigramTable(counts)
	}
	trainedTarget := float64(totalTokens) * float64(cfg.Epochs)
	// trainedTokens is the shared progress counter driving the linear
	// learning-rate decay. Workers fold their local token counts in at
	// every LR refresh, so the schedule tracks global progress even when
	// sequence lengths are skewed across workers (a per-worker
	// processed*workers estimate decays too fast for workers holding the
	// long sequences and too slow for the rest).
	var trainedTokens atomic.Int64

	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers > nSeqs && nSeqs > 0 {
		workers = nSeqs
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := newXorshift(uint64(cfg.Seed)*0x9e37 + uint64(worker)*7919 + 1)
			sc := newPairScratch(dim, cfg.Negative, cfg.Mode == CBOW)
			neu, grad := sc.neu, sc.grad
			var subBuf []int32
			var processed, synced int64
			// untilLR counts down to the next learning-rate refresh so the
			// per-token check is a decrement, not an int64 modulo.
			var untilLR int64
			lr := float32(cfg.LR)
			minLR := float32(cfg.LR / 10000)
			updateLR := func() {
				total := trainedTokens.Add(processed - synced)
				synced = processed
				frac := float32(float64(total) / trainedTarget)
				if frac > 1 {
					frac = 1
				}
				lr = float32(cfg.LR) * (1 - frac)
				if lr < minLR {
					lr = minLR
				}
			}
			for ep := 0; ep < cfg.Epochs; ep++ {
				for si := worker; si < nSeqs; si += workers {
					seq := seqs.Seq(si)
					if cfg.Subsample > 0 {
						if fineTune {
							subBuf = subsampleSparseInto(subBuf[:0], seq, sparseCounts, totalTokens, cfg.Subsample, &rng)
						} else {
							subBuf = subsampleInto(subBuf[:0], seq, counts, totalTokens, cfg.Subsample, &rng)
						}
						seq = subBuf
					}
					for pos, center := range seq {
						if untilLR == 0 {
							updateLR()
							untilLR = 10000
						}
						untilLR--
						processed++
						// Randomized effective window, as in word2vec.
						win := 1 + rng.intn(cfg.Window)
						lo, hi := pos-win, pos+win
						if lo < 0 {
							lo = 0
						}
						if hi >= len(seq) {
							hi = len(seq) - 1
						}
						if cfg.Mode == SkipGram {
							for c := lo; c <= hi; c++ {
								if c == pos {
									continue
								}
								row := int(seq[c]) * dim
								trainPair(syn0[row:row+dim], syn1, dim, center, table, cfg.Negative, lr, &rng, sc)
							}
						} else {
							// CBOW: average context into neu.
							for d := range neu {
								neu[d] = 0
							}
							n := 0
							for c := lo; c <= hi; c++ {
								if c == pos {
									continue
								}
								row := int(seq[c]) * dim
								Add(neu, syn0[row:row+dim])
								n++
							}
							if n == 0 {
								continue
							}
							inv := 1 / float32(n)
							for d := range neu {
								neu[d] *= inv
							}
							trainPair(neu, syn1, dim, center, table, cfg.Negative, lr, &rng, sc)
							// grad now holds the input-side gradient;
							// distribute to every context vector.
							for c := lo; c <= hi; c++ {
								if c == pos {
									continue
								}
								row := int(seq[c]) * dim
								Add(syn0[row:row+dim], grad)
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if inPlace != nil {
		inPlace.Arena, inPlace.Out = syn0, syn1
		if syn0Moved || inPlace.Vecs == nil {
			vecs := make([][]float32, vocabSize)
			for i := range vecs {
				vecs[i] = syn0[i*dim : (i+1)*dim : (i+1)*dim]
			}
			inPlace.Vecs = vecs
		} else {
			// The arena did not move: existing views stay valid, only the
			// appended vocabulary rows need views — O(new rows), the common
			// steady-state fine-tune cost.
			for i := len(inPlace.Vecs); i < vocabSize; i++ {
				inPlace.Vecs = append(inPlace.Vecs, syn0[i*dim:(i+1)*dim:(i+1)*dim])
			}
		}
		return inPlace, nil
	}
	vecs := make([][]float32, vocabSize)
	for i := range vecs {
		vecs[i] = syn0[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return &Model{Dim: dim, Arena: syn0, Vecs: vecs, Out: syn1}, nil
}

// growFloats returns s extended with zeros to length n, reporting
// whether the backing array moved. Reallocations reserve ~25% headroom
// so a stream of small fine-tune growths reallocates O(log) times.
func growFloats(s []float32, n int) (out []float32, moved bool) {
	if n <= cap(s) {
		out = s[:n]
		for i := len(s); i < n; i++ {
			out[i] = 0
		}
		return out, false
	}
	out = make([]float32, n, n+n/4)
	copy(out, s)
	return out, true
}

// pairScratch is the state one worker reuses across trainPair calls, so
// that nothing is allocated per pair. It costs two allocations, like
// the gradient and CBOW buffers it replaces.
type pairScratch struct {
	// grad is the input-side gradient trainPair leaves behind.
	grad []float32
	// toks are the pair's rows — the target, then the negatives drawn —
	// and f their dots, overwritten by their gradients: the vector
	// kernel's working set, Negative+1 long. The portable loop keeps
	// both in registers.
	toks []int32
	f    []float32
	// neu is the CBOW trainer's context average, carved from the same
	// allocation; empty for the trainers that have no use for it.
	neu []float32
}

func newPairScratch(dim, negative int, cbow bool) *pairScratch {
	n := dim + negative + 1
	if cbow {
		n += dim
	}
	buf := make([]float32, n)
	return &pairScratch{
		grad: buf[:dim:dim],
		f:    buf[dim : dim+negative+1 : dim+negative+1],
		neu:  buf[dim+negative+1:],
		toks: make([]int32, negative+1),
	}
}

// trainPairGo is the portable negative-sampling step and the reference
// the vector kernels are tested against, bit for bit. It performs one
// positive + k negative updates for input vector in against target
// token (and sampled negatives) through the flat syn1 arena (row i at
// [i*dim : (i+1)*dim]). The input-side gradient accumulation and the
// syn1 row update are fused into a single pass over the row. On return,
// sc.grad holds the accumulated input-side gradient; for Skip-gram it
// is applied to in directly, for CBOW the caller distributes it.
func trainPairGo(in, syn1 []float32, dim int, target int32, table []int32, negative int, lr float32, rng *xorshift, sc *pairScratch) {
	in = in[:dim]
	grad := sc.grad[:dim]
	for d := range grad {
		grad[d] = 0
	}
	for k := 0; k <= negative; k++ {
		var tok int32
		var label float32
		if k == 0 {
			tok, label = target, 1
		} else {
			// len(table) is a power of two (tableSizeFor), so the draw is
			// a mask, not a modulo.
			tok = table[rng.next()&uint64(len(table)-1)]
			if tok == target {
				continue
			}
			label = 0
		}
		row := int(tok) * dim
		out := syn1[row : row+dim : row+dim]
		f := Dot(in, out)
		g := (label - sigmoidFast(f)) * lr
		// Fused pass: read out[d] once for the gradient, then overwrite it
		// with the output-side update (the pre-update value feeds grad, so
		// the result matches the two-loop formulation exactly). Unrolled
		// four-wide: every element is independent, so the unroll changes
		// nothing but the instruction-level parallelism.
		n := dim &^ 3
		for d := 0; d < n; d += 4 {
			o0, o1, o2, o3 := out[d], out[d+1], out[d+2], out[d+3]
			grad[d] += g * o0
			grad[d+1] += g * o1
			grad[d+2] += g * o2
			grad[d+3] += g * o3
			out[d] = o0 + g*in[d]
			out[d+1] = o1 + g*in[d+1]
			out[d+2] = o2 + g*in[d+2]
			out[d+3] = o3 + g*in[d+3]
		}
		for d := n; d < dim; d++ {
			o := out[d]
			grad[d] += g * o
			out[d] = o + g*in[d]
		}
	}
	Add(in, grad)
}

// subsampleInto drops frequent tokens with probability 1 - sqrt(t/f(w)),
// appending survivors to dst (pass a reused buffer sliced to length 0 to
// keep the hot loop allocation-free once the buffer has grown).
func subsampleInto(dst, seq []int32, counts []int64, total int64, t float64, rng *xorshift) []int32 {
	for _, tok := range seq {
		freq := float64(counts[tok]) / float64(total)
		if freq > t {
			keep := float32(math.Sqrt(t / freq))
			if rng.float() > keep {
				continue
			}
		}
		dst = append(dst, tok)
	}
	return dst
}

// subsampleSparseInto is subsampleInto over a sparse tally — the
// fine-tune path's counterpart, identical policy.
func subsampleSparseInto(dst, seq []int32, sparse map[int32]int64, total int64, t float64, rng *xorshift) []int32 {
	for _, tok := range seq {
		freq := float64(sparse[tok]) / float64(total)
		if freq > t {
			keep := float32(math.Sqrt(t / freq))
			if rng.float() > keep {
				continue
			}
		}
		dst = append(dst, tok)
	}
	return dst
}
