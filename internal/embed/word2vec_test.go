package embed

import (
	"testing"
)

// clusterCorpus builds sentences from two disjoint token clusters:
// tokens 0-4 co-occur, tokens 5-9 co-occur, never across.
func clusterCorpus(repeats int) [][]int32 {
	var seqs [][]int32
	for r := 0; r < repeats; r++ {
		seqs = append(seqs,
			[]int32{0, 1, 2, 3, 4, 0, 2, 4, 1, 3},
			[]int32{5, 6, 7, 8, 9, 5, 7, 9, 6, 8},
		)
	}
	return seqs
}

func trainCluster(t *testing.T, mode Mode) *Model {
	t.Helper()
	m, err := Train(clusterCorpus(200), 10, Config{
		Dim: 16, Window: 3, Negative: 5, Epochs: 3, Seed: 1, Workers: 1, Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainSkipGramSeparatesClusters(t *testing.T) {
	m := trainCluster(t, SkipGram)
	within := Cosine(m.Vector(0), m.Vector(2))
	across := Cosine(m.Vector(0), m.Vector(7))
	if within <= across {
		t.Errorf("within-cluster sim %.3f <= across %.3f", within, across)
	}
}

func TestTrainCBOWSeparatesClusters(t *testing.T) {
	m := trainCluster(t, CBOW)
	within := Cosine(m.Vector(1), m.Vector(3))
	across := Cosine(m.Vector(1), m.Vector(8))
	if within <= across {
		t.Errorf("within-cluster sim %.3f <= across %.3f", within, across)
	}
}

func TestTrainDeterministicSingleWorker(t *testing.T) {
	cfg := Config{Dim: 8, Window: 2, Negative: 3, Epochs: 2, Seed: 5, Workers: 1}
	m1, err := Train(clusterCorpus(20), 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(clusterCorpus(20), 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Vecs {
		for d := range m1.Vecs[i] {
			if m1.Vecs[i][d] != m2.Vecs[i][d] {
				t.Fatalf("nondeterministic training at token %d dim %d", i, d)
			}
		}
	}
}

func TestTrainParallelStillLearns(t *testing.T) {
	m, err := Train(clusterCorpus(200), 10, Config{
		Dim: 16, Window: 3, Negative: 5, Epochs: 3, Seed: 2, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if Cosine(m.Vector(0), m.Vector(3)) <= Cosine(m.Vector(0), m.Vector(8)) {
		t.Error("parallel training failed to separate clusters")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, 0, Config{}); err == nil {
		t.Error("want error for vocabSize 0")
	}
	if _, err := Train([][]int32{{5}}, 3, Config{}); err == nil {
		t.Error("want error for out-of-range token")
	}
	if _, err := Train([][]int32{{-1}}, 3, Config{}); err == nil {
		t.Error("want error for negative token")
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	m, err := Train(nil, 5, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vecs) != 5 {
		t.Errorf("Vecs = %d, want 5 nil slots", len(m.Vecs))
	}
	if m.Vector(0) != nil {
		t.Error("untrained vector must be nil")
	}
}

func TestModelVectorBounds(t *testing.T) {
	m := &Model{Dim: 2, Vecs: [][]float32{{1, 2}}}
	if m.Vector(-1) != nil || m.Vector(1) != nil {
		t.Error("out-of-range Vector must be nil")
	}
	if m.Vector(0) == nil {
		t.Error("valid Vector returned nil")
	}
	var nilM *Model
	if nilM.Vector(0) != nil {
		t.Error("nil model Vector must be nil")
	}
	if Cosine(m.Vector(0), m.Vector(5)) != 0 {
		t.Error("similarity with missing vector must be 0")
	}
}

func TestTrainSubsample(t *testing.T) {
	// With aggressive subsampling the ultra-frequent token 0 is mostly
	// dropped, but training still runs and other tokens get vectors.
	seqs := make([][]int32, 50)
	for i := range seqs {
		seqs[i] = []int32{0, 1, 0, 2, 0, 3, 0, 1, 0, 2}
	}
	m, err := Train(seqs, 4, Config{Dim: 8, Epochs: 2, Seed: 3, Workers: 1, Subsample: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Vector(1) == nil || m.Vector(3) == nil {
		t.Error("subsampled training lost vectors")
	}
}

func TestUnigramTableProportions(t *testing.T) {
	counts := []int64{1000, 10, 0, 10}
	table := unigramTable(counts)
	freq := make([]int, 4)
	for _, tok := range table {
		freq[tok]++
	}
	if freq[2] != 0 {
		t.Errorf("zero-count token sampled %d times", freq[2])
	}
	if freq[0] <= freq[1] {
		t.Errorf("frequent token underrepresented: %d vs %d", freq[0], freq[1])
	}
	// The 3/4 power flattens: token 0 has 100x the count of token 1 but
	// must have far less than 100x the table share.
	if freq[0] > freq[1]*60 {
		t.Errorf("power smoothing missing: %d vs %d", freq[0], freq[1])
	}
}

func TestUnigramTableAllZero(t *testing.T) {
	table := unigramTable([]int64{0, 0, 0})
	for _, tok := range table {
		if tok < 0 || tok > 2 {
			t.Fatalf("token out of range: %d", tok)
		}
	}
}

func TestModeString(t *testing.T) {
	if SkipGram.String() != "skipgram" || CBOW.String() != "cbow" {
		t.Error("mode names wrong")
	}
}

func TestTrainDBOWDocSimilarity(t *testing.T) {
	// Documents 0 and 1 share vocabulary; 2 is disjoint. Long documents
	// give each doc vector enough updates to move away from random init.
	mk := func(tokens []int32, reps int) []int32 {
		out := make([]int32, 0, len(tokens)*reps)
		for i := 0; i < reps; i++ {
			out = append(out, tokens...)
		}
		return out
	}
	docs := [][]int32{
		mk([]int32{0, 1, 2, 3}, 60),
		mk([]int32{3, 2, 1, 0}, 60),
		mk([]int32{4, 5, 6, 7}, 60),
	}
	vecs, err := TrainDBOW(docs, 8, Config{Dim: 16, Negative: 8, Epochs: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim01 := Cosine(vecs[0], vecs[1])
	sim02 := Cosine(vecs[0], vecs[2])
	if sim01 <= sim02 {
		t.Errorf("DBOW: related docs %.3f <= unrelated %.3f", sim01, sim02)
	}
}

func TestTrainDBOWValidation(t *testing.T) {
	if _, err := TrainDBOW(nil, 0, Config{}); err == nil {
		t.Error("want error for vocabSize 0")
	}
	if _, err := TrainDBOW([][]int32{{9}}, 3, Config{}); err == nil {
		t.Error("want error for out-of-range token")
	}
	vecs, err := TrainDBOW([][]int32{{}, {}}, 3, Config{Dim: 4})
	if err != nil || len(vecs) != 2 {
		t.Errorf("empty docs: vecs=%d err=%v", len(vecs), err)
	}
}

func TestBuildVocab(t *testing.T) {
	sents := [][]string{{"a", "b", "a"}, {"b", "c"}}
	v := BuildVocab(sents, 1)
	if v.Size() != 3 {
		t.Fatalf("Size = %d, want 3", v.Size())
	}
	if v.ID("a") != 0 || v.ID("b") != 1 || v.ID("c") != 2 {
		t.Errorf("IDs not in first-seen order: a=%d b=%d c=%d", v.ID("a"), v.ID("b"), v.ID("c"))
	}
	if v.ID("zzz") != -1 {
		t.Error("OOV must be -1")
	}
	if v.tokens[1] != "b" {
		t.Error("token lookup wrong")
	}
}

func TestBuildVocabMinCount(t *testing.T) {
	sents := [][]string{{"rare", "common", "common"}}
	v := BuildVocab(sents, 2)
	if v.Size() != 1 || v.ID("common") != 0 {
		t.Errorf("minCount filter failed: size=%d", v.Size())
	}
	enc := v.Encode(sents)
	if len(enc[0]) != 2 {
		t.Errorf("Encode kept OOV: %v", enc[0])
	}
}

func TestTrainTextSentenceVector(t *testing.T) {
	sents := [][]string{}
	for i := 0; i < 100; i++ {
		sents = append(sents,
			[]string{"movie", "director", "actor", "film"},
			[]string{"virus", "cases", "deaths", "country"},
		)
	}
	tm, err := TrainText(sents, 1, Config{Dim: 16, Window: 3, Epochs: 3, Seed: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if Cosine(tm.Vector("movie"), tm.Vector("actor")) <= Cosine(tm.Vector("movie"), tm.Vector("virus")) {
		t.Error("text model failed to cluster co-occurring words")
	}
	sv := tm.SentenceVector([]string{"movie", "director", "unknowntoken"})
	if len(sv) != 16 {
		t.Errorf("SentenceVector dim = %d", len(sv))
	}
	if tm.Vector("unknowntoken") != nil {
		t.Error("unknown token must have nil vector")
	}
	if Cosine(tm.Vector("movie"), tm.Vector("unknowntoken")) != 0 {
		t.Error("similarity with OOV must be 0")
	}
}

func TestTrainTextEmpty(t *testing.T) {
	tm, err := TrainText(nil, 1, Config{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Vocab.Size() != 0 {
		t.Error("empty corpus must give empty vocab")
	}
	sv := tm.SentenceVector([]string{"x"})
	if len(sv) != 8 {
		t.Errorf("SentenceVector on empty model: %v", sv)
	}
}

// TestTrainPackedAllocations pins the trainer's allocation budget: a
// fixed number of set-up allocations per call (counts, the two arenas,
// the sampling table, one scratch block and one token list per worker,
// the row views) and none per pair, whichever step implementation runs.
// The bounds are what the scalar trainer allocated before the vector
// kernels existed.
func TestTrainPackedAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		max  float64
	}{
		{"skipgram", Config{Dim: 96, Window: 3, Epochs: 1, Seed: 1, Workers: 1}, 19},
		{"cbow", Config{Dim: 96, Window: 6, Epochs: 1, Seed: 1, Workers: 1, Mode: CBOW}, 19},
		{"skipgram-2-workers", Config{Dim: 96, Window: 3, Epochs: 1, Seed: 1, Workers: 2}, 24},
	} {
		var perCorpus []float64
		for _, nSeqs := range []int{40, 160} {
			seqs := PackSequences(parityCorpus(200, nSeqs, 3))
			perCorpus = append(perCorpus, testing.AllocsPerRun(5, func() {
				if _, err := TrainPacked(seqs, 200, tc.cfg); err != nil {
					t.Fatal(err)
				}
			}))
		}
		// One allocation of slack: a second worker's start-up is the
		// runtime's to schedule.
		if perCorpus[1] > perCorpus[0]+1 {
			t.Errorf("%s: %v allocations on 40 sequences, %v on 160: the trainer allocates per sequence or per pair", tc.name, perCorpus[0], perCorpus[1])
		}
		if perCorpus[1] > tc.max {
			t.Errorf("%s: %v allocations per TrainPacked call, want at most %v", tc.name, perCorpus[1], tc.max)
		}
		t.Logf("%s: %v allocations per call", tc.name, perCorpus[1])
	}
}
