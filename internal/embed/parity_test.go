package embed

// Training-parity harness for the arena-backed memory-layout refactor:
// referenceTrain below is a structural copy of the pre-refactor trainer —
// per-token [][]float32 weight rows, the unfused two-loop trainPair, a
// fresh subsample slice per sequence and the per-worker learning-rate
// estimate — sharing this package's numeric helpers (Dot, Add,
// sigmoidFast, unigramTable, xorshift). At Workers: 1 the refactored
// TrainPacked must reproduce its output bit for bit: the layout change
// moves memory around without touching a single arithmetic result.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/graph"
)

// referenceTrain is the pre-refactor Train: pointer-per-row weights,
// allocation per subsampled sequence, separate gradient-accumulate and
// output-update loops.
func referenceTrain(seqs [][]int32, vocabSize int, cfg Config) (*Model, error) {
	if vocabSize <= 0 {
		return nil, fmt.Errorf("embed: vocabSize must be positive, got %d", vocabSize)
	}
	cfg = cfg.withDefaults()

	counts := make([]int64, vocabSize)
	sparseCounts := make(map[int32]int64)
	var totalTokens int64
	for si, s := range seqs {
		for _, t := range s {
			if t < 0 || int(t) >= vocabSize {
				return nil, fmt.Errorf("embed: token %d out of range in sequence %d", t, si)
			}
			counts[t]++
			sparseCounts[t]++
			totalTokens++
		}
	}
	if totalTokens == 0 {
		return &Model{Dim: cfg.Dim, Vecs: make([][]float32, vocabSize)}, nil
	}

	// A warm start (cfg.Initial; the reference has no in-place form)
	// copies the initial model's rows, draws fresh values for the
	// appended rows only, and samples negatives from the delta corpus's
	// own tokens.
	warm := 0
	if cfg.Initial != nil {
		warm = len(cfg.Initial.Vecs)
	}
	syn0 := make([][]float32, vocabSize)
	syn1 := make([][]float32, vocabSize)
	initRng := newXorshift(uint64(cfg.Seed) ^ 0xabcdef)
	for i := range syn0 {
		v0 := make([]float32, cfg.Dim)
		syn1[i] = make([]float32, cfg.Dim)
		if i < warm {
			copy(v0, cfg.Initial.Vecs[i])
			copy(syn1[i], cfg.Initial.Out[i*cfg.Dim:(i+1)*cfg.Dim])
		} else {
			for d := range v0 {
				v0[d] = (initRng.float() - 0.5) / float32(cfg.Dim)
			}
		}
		syn0[i] = v0
	}

	table := unigramTable(counts)
	if cfg.Initial != nil {
		table = unigramTableSparse(sparseCounts)
	}
	trainedTarget := float64(totalTokens) * float64(cfg.Epochs)

	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers > len(seqs) && len(seqs) > 0 {
		workers = len(seqs)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := newXorshift(uint64(cfg.Seed)*0x9e37 + uint64(worker)*7919 + 1)
			neu := make([]float32, cfg.Dim)
			grad := make([]float32, cfg.Dim)
			var processed int64
			lr := float32(cfg.LR)
			minLR := float32(cfg.LR / 10000)
			updateLR := func() {
				frac := float32(float64(processed*int64(workers)) / trainedTarget)
				if frac > 1 {
					frac = 1
				}
				lr = float32(cfg.LR) * (1 - frac)
				if lr < minLR {
					lr = minLR
				}
			}
			for ep := 0; ep < cfg.Epochs; ep++ {
				for si := worker; si < len(seqs); si += workers {
					seq := seqs[si]
					if cfg.Subsample > 0 {
						seq = referenceSubsample(seq, counts, totalTokens, cfg.Subsample, &rng)
					}
					for pos, center := range seq {
						if processed%10000 == 0 {
							updateLR()
						}
						processed++
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
								referenceTrainPair(syn0[seq[c]], syn1, center, table, cfg.Negative, lr, grad, &rng)
							}
						} else {
							for d := range neu {
								neu[d] = 0
							}
							n := 0
							for c := lo; c <= hi; c++ {
								if c == pos {
									continue
								}
								Add(neu, syn0[seq[c]])
								n++
							}
							if n == 0 {
								continue
							}
							inv := 1 / float32(n)
							for d := range neu {
								neu[d] *= inv
							}
							referenceTrainPair(neu, syn1, center, table, cfg.Negative, lr, grad, &rng)
							for c := lo; c <= hi; c++ {
								if c == pos {
									continue
								}
								Add(syn0[seq[c]], grad)
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	out := make([]float32, 0, vocabSize*cfg.Dim)
	for _, row := range syn1 {
		out = append(out, row...)
	}
	return &Model{Dim: cfg.Dim, Vecs: syn0, Out: out}, nil
}

// referenceDBOW is TrainDBOW over pointer-per-row weights and the
// unfused referenceTrainPair.
func referenceDBOW(docs [][]int32, vocabSize int, cfg Config) [][]float32 {
	cfg = cfg.withDefaults()
	counts := make([]int64, vocabSize)
	var total int64
	for _, d := range docs {
		for _, t := range d {
			counts[t]++
			total++
		}
	}
	rng := newXorshift(uint64(cfg.Seed) ^ 0xd0c2)
	docVecs := make([][]float32, len(docs))
	for i := range docVecs {
		docVecs[i] = make([]float32, cfg.Dim)
		for d := range docVecs[i] {
			docVecs[i][d] = (rng.float() - 0.5) / float32(cfg.Dim)
		}
	}
	syn1 := make([][]float32, vocabSize)
	for i := range syn1 {
		syn1[i] = make([]float32, cfg.Dim)
	}
	table := unigramTable(counts)
	grad := make([]float32, cfg.Dim)
	lr := float32(cfg.LR)
	minLR := float32(cfg.LR / 10000)
	var processed int64
	target := total * int64(cfg.Epochs)
	for ep := 0; ep < cfg.Epochs; ep++ {
		for di, d := range docs {
			for _, tok := range d {
				if processed%10000 == 0 {
					frac := float32(float64(processed) / float64(target))
					lr = float32(cfg.LR) * (1 - frac)
					if lr < minLR {
						lr = minLR
					}
				}
				processed++
				referenceTrainPair(docVecs[di], syn1, tok, table, cfg.Negative, lr, grad, &rng)
			}
		}
	}
	return docVecs
}

// referenceTrainPair is the unfused pre-refactor update: one loop
// accumulates the input-side gradient, a second loop updates the output
// row.
func referenceTrainPair(in []float32, syn1 [][]float32, target int32, table []int32, negative int, lr float32, grad []float32, rng *xorshift) {
	for d := range grad {
		grad[d] = 0
	}
	for k := 0; k <= negative; k++ {
		var tok int32
		var label float32
		if k == 0 {
			tok, label = target, 1
		} else {
			tok = table[rng.intn(len(table))]
			if tok == target {
				continue
			}
			label = 0
		}
		out := syn1[tok]
		f := Dot(in, out)
		g := (label - sigmoidFast(f)) * lr
		for d := range grad {
			grad[d] += g * out[d]
		}
		for d := range out {
			out[d] += g * in[d]
		}
	}
	Add(in, grad)
}

// referenceSubsample is the allocating pre-refactor subsampler.
func referenceSubsample(seq []int32, counts []int64, total int64, t float64, rng *xorshift) []int32 {
	out := make([]int32, 0, len(seq))
	for _, tok := range seq {
		freq := float64(counts[tok]) / float64(total)
		if freq > t {
			keep := float32(math.Sqrt(t / freq))
			if rng.float() > keep {
				continue
			}
		}
		out = append(out, tok)
	}
	return out
}

// parityCorpus builds a deterministic synthetic corpus with a skewed
// token distribution and uneven sequence lengths (the shapes that would
// expose ordering or buffer-reuse bugs).
func parityCorpus(vocab, nSeqs int, seed uint64) [][]int32 {
	rng := newXorshift(seed)
	seqs := make([][]int32, nSeqs)
	for i := range seqs {
		n := 3 + rng.intn(40)
		s := make([]int32, n)
		for j := range s {
			// Square the draw to skew frequencies toward low IDs.
			a := rng.intn(vocab)
			b := rng.intn(vocab)
			if b < a {
				a = b
			}
			s[j] = int32(a)
		}
		seqs[i] = s
	}
	return seqs
}

func assertModelsEqual(t *testing.T, want, got *Model) {
	t.Helper()
	if len(want.Vecs) != len(got.Vecs) {
		t.Fatalf("vocab size differs: %d vs %d", len(want.Vecs), len(got.Vecs))
	}
	for i := range want.Vecs {
		for d := range want.Vecs[i] {
			if want.Vecs[i][d] != got.Vecs[i][d] {
				t.Fatalf("token %d dim %d: reference %v, arena %v", i, d, want.Vecs[i][d], got.Vecs[i][d])
			}
		}
	}
	if len(want.Out) != len(got.Out) {
		t.Fatalf("output weights differ in size: %d vs %d", len(want.Out), len(got.Out))
	}
	for i := range want.Out {
		if want.Out[i] != got.Out[i] {
			t.Fatalf("output weight %d: reference %v, arena %v", i, want.Out[i], got.Out[i])
		}
	}
}

// TestTrainMatchesReferenceLayout proves the memory-layout refactor is
// arithmetically inert: for every objective, with and without
// subsampling, single-worker arena training is bit-identical to the
// pointer-per-row reference.
func TestTrainMatchesReferenceLayout(t *testing.T) {
	seqs := parityCorpus(120, 60, 99)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"skipgram", Config{Dim: 24, Window: 4, Negative: 5, Epochs: 2, Seed: 7, Workers: 1, Mode: SkipGram}},
		{"cbow", Config{Dim: 24, Window: 6, Negative: 4, Epochs: 2, Seed: 8, Workers: 1, Mode: CBOW}},
		{"skipgram-subsample", Config{Dim: 16, Window: 3, Negative: 3, Epochs: 3, Seed: 9, Workers: 1, Mode: SkipGram, Subsample: 1e-2}},
		// The production row lengths: 96 is every Config default and
		// bench/ fixture (whole vector blocks), 100 embed's own default
		// (a four-lane tail).
		{"skipgram-96", Config{Dim: 96, Window: 3, Negative: 5, Epochs: 2, Seed: 10, Workers: 1, Mode: SkipGram}},
		{"cbow-96", Config{Dim: 96, Window: 6, Negative: 5, Epochs: 2, Seed: 11, Workers: 1, Mode: CBOW}},
		{"skipgram-100", Config{Dim: 100, Window: 3, Negative: 5, Epochs: 2, Seed: 12, Workers: 1, Mode: SkipGram, Subsample: 1e-2}},
		{"cbow-100", Config{Dim: 100, Window: 6, Negative: 4, Epochs: 2, Seed: 13, Workers: 1, Mode: CBOW}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := referenceTrain(seqs, 120, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Train(seqs, 120, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertModelsEqual(t, want, got)
			if got.Arena == nil {
				t.Fatal("trained model has no arena")
			}
			if &got.Arena[0] != &got.Vecs[0][0] {
				t.Error("Vecs[0] is not a view into the arena")
			}
		})
	}

	// The warm starts: both forms fine-tune a trained model over a delta
	// corpus that brings twenty new tokens, and must land where the
	// reference's copying warm start does.
	delta := parityCorpus(140, 20, 100)
	for _, dim := range []int{24, 96, 100} {
		for _, inPlace := range []bool{false, true} {
			t.Run(fmt.Sprintf("warm-start-%d-inplace=%v", dim, inPlace), func(t *testing.T) {
				cfg := Config{Dim: dim, Window: 3, Negative: 5, Epochs: 2, Seed: 14, Workers: 1, Mode: SkipGram}
				base, err := Train(seqs, 120, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Initial = base
				want, err := referenceTrain(delta, 140, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.InPlace = inPlace
				got, err := Train(delta, 140, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertModelsEqual(t, want, got)
				if inPlace && got != base {
					t.Error("in-place warm start returned a new model")
				}
			})
		}
	}

	for _, dim := range []int{24, 96, 100} {
		t.Run(fmt.Sprintf("dbow-%d", dim), func(t *testing.T) {
			cfg := Config{Dim: dim, Negative: 5, Epochs: 2, Seed: 15}
			want := referenceDBOW(seqs, 120, cfg)
			got, err := TrainDBOW(seqs, 120, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertModelsEqual(t, &Model{Vecs: want}, &Model{Vecs: got})
		})
	}
}

// imdbWalkSequences derives training sequences from the seed IMDb graph
// with a self-contained deterministic walker (the walk package cannot be
// imported from embed's internal tests).
func imdbWalkSequences(t *testing.T) ([][]int32, *graph.Graph) {
	t.Helper()
	s, err := datasets.IMDb(datasets.IMDbConfig{Seed: 3, Movies: 30, WithTitle: true, GeneralSentences: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := graph.Build(s.First, s.Second, graph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	var seqs [][]int32
	g.Nodes(func(id graph.NodeID) {
		for k := 0; k < 3; k++ {
			rng := newXorshift(uint64(id)*1315423911 + uint64(k) + 17)
			walk := make([]int32, 0, 12)
			walk = append(walk, int32(id))
			cur := id
			for len(walk) < 12 {
				nbs := g.Neighbors(cur)
				if len(nbs) == 0 {
					break
				}
				cur = nbs[rng.intn(len(nbs))]
				walk = append(walk, int32(cur))
			}
			seqs = append(seqs, walk)
		}
	})
	return seqs, g
}

// rankAll orders the other-side metadata nodes by cosine similarity to
// the query node, ties broken by node ID — the §IV-B ranking the serving
// indexes reproduce.
func rankAll(m *Model, query graph.NodeID, targets []graph.NodeID) []graph.NodeID {
	type scored struct {
		id  graph.NodeID
		sim float64
	}
	list := make([]scored, 0, len(targets))
	for _, tgt := range targets {
		list = append(list, scored{tgt, Cosine(m.Vector(int32(query)), m.Vector(int32(tgt)))})
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0; j-- {
			a, b := list[j-1], list[j]
			if b.sim > a.sim || (b.sim == a.sim && b.id < a.id) {
				list[j-1], list[j] = b, a
			} else {
				break
			}
		}
	}
	out := make([]graph.NodeID, len(list))
	for i, s := range list {
		out[i] = s.id
	}
	return out
}

// TestTrainParityIMDbRankings is the seed-IMDb acceptance check: arena
// training at Workers: 1 yields embeddings bit-identical to the
// pre-refactor reference, and therefore identical TopK rankings for
// every second-corpus metadata node against the first corpus.
func TestTrainParityIMDbRankings(t *testing.T) {
	seqs, g := imdbWalkSequences(t)
	cfg := Config{Dim: 32, Window: 3, Negative: 5, Epochs: 2, Seed: 11, Workers: 1, Mode: SkipGram, Subsample: 1e-2}
	want, err := referenceTrain(seqs, g.Cap(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrainPacked(PackSequences(seqs), g.Cap(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsEqual(t, want, got)

	targets := g.MetadataNodes(graph.First)
	queries := g.MetadataNodes(graph.Second)
	if len(targets) == 0 || len(queries) == 0 {
		t.Fatal("IMDb scenario produced no metadata nodes")
	}
	k := 10
	if k > len(targets) {
		k = len(targets)
	}
	for _, q := range queries {
		wantRank := rankAll(want, q, targets)[:k]
		gotRank := rankAll(got, q, targets)[:k]
		for i := range wantRank {
			if wantRank[i] != gotRank[i] {
				t.Fatalf("query %d: rank %d differs (reference %d, arena %d)", q, i, wantRank[i], gotRank[i])
			}
		}
	}
}
