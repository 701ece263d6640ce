package match

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestQuantizeRowReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := make([]float32, 96)
	for d := range v {
		v[d] = rng.Float32()*2 - 1
	}
	codes := make([]int8, len(v))
	scale := quantizeRow(v, codes)
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	for d, c := range codes {
		if c < -127 || c > 127 {
			t.Fatalf("code %d out of range: %d", d, c)
		}
		got := float64(c) * float64(scale)
		if math.Abs(got-float64(v[d])) > float64(scale)*0.5001 {
			t.Fatalf("dim %d: reconstructed %v from %v (scale %v)", d, got, v[d], scale)
		}
	}
	zero := make([]float32, 8)
	zcodes := make([]int8, 8)
	if s := quantizeRow(zero, zcodes); s != 0 {
		t.Errorf("zero-row scale = %v", s)
	}
	for _, c := range zcodes {
		if c != 0 {
			t.Errorf("zero-row codes = %v", zcodes)
		}
	}
}

// TestSQ8FullRerankMatchesFlat: with the re-rank pool covering the whole
// corpus, every candidate is exactly re-scored, so the SQ8 ranking must
// equal the flat one bit-for-bit — the SQ8 parity knob.
func TestSQ8FullRerankMatchesFlat(t *testing.T) {
	const n, dim = 220, 32
	idx := kernelTestIndex(t, n, dim, 21)
	sq := NewIndexSQ8(idx, n) // rerank*k >= n for any k >= 1
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 15; trial++ {
		q := make([]float32, dim)
		for d := range q {
			q[d] = rng.Float32()*2 - 1
		}
		k := 1 + rng.Intn(20)
		got := sq.TopK(q, k)
		want := idx.TopK(q, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d k=%d: full-rerank SQ8 diverged from flat\nsq8:  %v\nflat: %v", trial, k, got, want)
		}
	}
}

// TestSQ8BatchMatchesSerial pins the SQ8 batch entry point to its own
// serial TopK at several batch sizes.
func TestSQ8BatchMatchesSerial(t *testing.T) {
	const n, dim = 180, 24
	idx := kernelTestIndex(t, n, dim, 23)
	sq := NewIndexSQ8(idx, 0)
	if sq.Rerank() != DefaultSQ8Rerank {
		t.Fatalf("default rerank = %d", sq.Rerank())
	}
	rng := rand.New(rand.NewSource(24))
	queries := make([][]float32, 11)
	for i := range queries {
		q := make([]float32, dim)
		for d := range q {
			q[d] = rng.Float32()*2 - 1
		}
		queries[i] = q
	}
	for batch := 1; batch <= len(queries); batch++ {
		got := sq.TopKBatch(queries[:batch], 6)
		for qi := 0; qi < batch; qi++ {
			want := sq.TopK(queries[qi], 6)
			if !reflect.DeepEqual(got[qi], want) {
				t.Fatalf("batch=%d query=%d: SQ8 batch diverged from serial", batch, qi)
			}
		}
	}
}

// TestSQ8DefaultRerankRecall: on random data the default 4x re-rank
// pool must recover nearly all of the exact top-10.
func TestSQ8DefaultRerankRecall(t *testing.T) {
	const n, dim, k = 2000, 48, 10
	idx := kernelTestIndex(t, n, dim, 25)
	sq := NewIndexSQ8(idx, 0)
	rng := rand.New(rand.NewSource(26))
	hits, total := 0, 0
	for trial := 0; trial < 50; trial++ {
		q := make([]float32, dim)
		for d := range q {
			q[d] = rng.Float32()*2 - 1
		}
		exact := map[string]struct{}{}
		for _, s := range idx.TopK(q, k) {
			exact[s.ID] = struct{}{}
		}
		for _, s := range sq.TopK(q, k) {
			if _, ok := exact[s.ID]; ok {
				hits++
			}
		}
		total += k
	}
	recall := float64(hits) / float64(total)
	t.Logf("SQ8 recall@%d = %.4f", k, recall)
	if recall < 0.99 {
		t.Errorf("recall@%d = %.4f, want >= 0.99", k, recall)
	}
}

// TestSQ8ZeroQueryDeterministic: a zero query scores 0 everywhere in
// both phases, so the result is the k smallest IDs — identical to flat.
func TestSQ8ZeroQueryDeterministic(t *testing.T) {
	const n, dim = 60, 16
	idx := kernelTestIndex(t, n, dim, 27)
	sq := NewIndexSQ8(idx, 0)
	zero := make([]float32, dim)
	got := sq.TopK(zero, 5)
	want := idx.TopK(zero, 5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero query: sq8 %v vs flat %v", got, want)
	}
}

func TestSQ8Accessors(t *testing.T) {
	idx := kernelTestIndex(t, 30, 8, 28)
	sq := NewIndexSQ8(idx, 6)
	if sq.Flat() != idx || sq.Rerank() != 6 {
		t.Error("Flat/Rerank accessors wrong")
	}
	if sq.Len() != idx.Len() || sq.Dim() != idx.Dim() || len(sq.IDs()) != idx.Len() {
		t.Error("Len/Dim/IDs must delegate to the flat index")
	}
}

func TestSQ8FingerprintDistinguishesConfigs(t *testing.T) {
	idx := kernelTestIndex(t, 30, 8, 29)
	a := NewIndexSQ8(idx, 4).Fingerprint()
	b := NewIndexSQ8(idx, 8).Fingerprint()
	if a == b {
		t.Error("rerank change must change the fingerprint")
	}
	if a == idx.Fingerprint() {
		t.Error("SQ8 fingerprint must differ from the flat one")
	}
	if a != NewIndexSQ8(idx, 4).Fingerprint() {
		t.Error("equal configs must share a fingerprint")
	}
}
