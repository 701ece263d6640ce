//go:build amd64 && !purego

package embed

import (
	"math"
	"testing"
)

// TestSgnsDotsMatchesDot holds the dot kernel to Dot's summation order
// directly. Through trainPair a dot only picks a sigmoid table slot, so
// a kernel that summed in another order would pass the pair-level
// parity suite on all but the rare dot that lands on a slot boundary.
func TestSgnsDotsMatchesDot(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU has no AVX2")
	}
	rng := newXorshift(41)
	for dim := 1; dim <= 130; dim++ {
		for _, n := range []int{1, 2, 5, 6, 7, 13} {
			offset := (dim + n) % 8
			const vocab = 17
			syn1 := make([]float32, offset+vocab*dim)[offset:]
			in := make([]float32, offset+dim)[offset:]
			for i := range syn1 {
				syn1[i] = rng.float()*2 - 1
			}
			for i := range in {
				in[i] = rng.float()*2 - 1
			}
			toks := make([]int32, n)
			for j := range toks {
				toks[j] = int32(rng.intn(vocab))
			}
			f := make([]float32, n+1)
			const canary = -12345
			f[n] = canary
			sgnsDots(&in[0], &syn1[0], &toks[0], &f[0], n, dim)
			for j, tok := range toks {
				want := Dot(in, syn1[int(tok)*dim:int(tok)*dim+dim])
				if math.Float32bits(f[j]) != math.Float32bits(want) {
					t.Fatalf("dim=%d n=%d row %d: kernel %v (%#08x), Dot %v (%#08x)",
						dim, n, j, f[j], math.Float32bits(f[j]), want, math.Float32bits(want))
				}
			}
			if f[n] != canary {
				t.Fatalf("dim=%d n=%d: kernel wrote past its %d results", dim, n, n)
			}
		}
	}
}

// withKernel runs f with the assembly step forced on or off.
func withKernel(t *testing.T, on bool, f func()) {
	t.Helper()
	saved := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = saved }()
	f()
}

// TestTrainersKernelMatchesPortable is the whole-trainer form of the
// kernel contract: at Workers 1 every trainer that goes through
// trainPair — Skip-gram, CBOW, PV-DBOW, and the copying and in-place
// warm starts — leaves the same bits in Model.Arena and Model.Out (the
// document matrix for DBOW) with the kernel on as with it off, at the
// production row lengths and one with a scalar tail.
func TestTrainersKernelMatchesPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU has no AVX2")
	}
	const vocab = 300
	seqs := parityCorpus(vocab, 80, 5)
	delta := parityCorpus(vocab+20, 15, 6)
	for _, dim := range []int{96, 100, 37} {
		trainers := map[string]func() (arena, out []float32){
			"skipgram": func() ([]float32, []float32) {
				m, err := Train(seqs, vocab, Config{Dim: dim, Window: 3, Epochs: 2, Seed: 3, Workers: 1, Subsample: 1e-2})
				if err != nil {
					t.Fatal(err)
				}
				return m.Arena, m.Out
			},
			"cbow": func() ([]float32, []float32) {
				m, err := Train(seqs, vocab, Config{Dim: dim, Window: 8, Epochs: 2, Seed: 4, Workers: 1, Mode: CBOW})
				if err != nil {
					t.Fatal(err)
				}
				return m.Arena, m.Out
			},
			"dbow": func() ([]float32, []float32) {
				docs, err := TrainDBOW(seqs, vocab, Config{Dim: dim, Epochs: 2, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				var flat []float32
				for _, d := range docs {
					flat = append(flat, d...)
				}
				return flat, nil
			},
		}
		for _, inPlace := range []bool{false, true} {
			name := "warm-copy"
			if inPlace {
				name = "warm-inplace"
			}
			trainers[name] = func() ([]float32, []float32) {
				cfg := Config{Dim: dim, Window: 3, Epochs: 1, Seed: 6, Workers: 1}
				base, err := Train(seqs, vocab, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Initial, cfg.InPlace = base, inPlace
				m, err := Train(delta, vocab+20, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m.Arena, m.Out
			}
		}
		for name, train := range trainers {
			var wantArena, wantOut, gotArena, gotOut []float32
			withKernel(t, false, func() { wantArena, wantOut = train() })
			withKernel(t, true, func() { gotArena, gotOut = train() })
			for _, cmp := range []struct {
				what      string
				want, got []float32
			}{{"Arena", wantArena, gotArena}, {"Out", wantOut, gotOut}} {
				if len(cmp.want) != len(cmp.got) {
					t.Fatalf("%s dim %d: %s holds %d floats portable, %d avx2", name, dim, cmp.what, len(cmp.want), len(cmp.got))
				}
				for i := range cmp.want {
					if math.Float32bits(cmp.want[i]) != math.Float32bits(cmp.got[i]) {
						t.Fatalf("%s dim %d: %s[%d] portable %v, avx2 %v", name, dim, cmp.what, i, cmp.want[i], cmp.got[i])
					}
				}
			}
		}
	}
}
