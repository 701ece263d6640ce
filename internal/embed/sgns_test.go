package embed

// Kernel parity for the negative-sampling step: trainPair (the AVX2
// kernels where the build and the CPU have them) against trainPairGo,
// the portable loops, bit for bit. Under -tags=purego, and off amd64,
// the two are the same function and these tests pass trivially; the
// whole-trainer suites in parity_test.go then pin the portable path
// alone against the pre-refactor reference.

import (
	"fmt"
	"math"
	"testing"
)

// pairCase is one generated trainPair scenario. Everything the kernels
// branch on is a field: the row length (vector loop, four-lane step,
// scalar tail), where the slices start in memory, how many rows a pair
// has and how likely a draw is to hit the target or repeat a row
// (tokens), and how large the dots get (scaleExp: the sigmoid clamps
// beyond ±6).
type pairCase struct {
	dim, negative int
	// tokens is the number of distinct tokens the sampling table holds,
	// out of a vocabulary of tokens+1 rows: two or three make nearly
	// every draw a repeat or the target.
	tokens int
	// offset shifts every slice off its allocation's alignment, in
	// floats.
	offset int
	// scaleExp scales the generated weights by 2^scaleExp.
	scaleExp int
	// zeroOut leaves syn1 zero, the state every training run starts in.
	zeroOut bool
	// pairs is how many trainPair calls run back to back on the same
	// arenas, so that later pairs read what earlier ones wrote.
	pairs int
	seed  uint64
}

func (c pairCase) String() string {
	return fmt.Sprintf("dim=%d neg=%d tokens=%d off=%d scale=2^%d zero=%v pairs=%d seed=%d",
		c.dim, c.negative, c.tokens, c.offset, c.scaleExp, c.zeroOut, c.pairs, c.seed)
}

// pairState is the memory one path of a pairCase trains on.
type pairState struct {
	syn0, syn1 []float32
	sc         *pairScratch
	rng        xorshift
}

func (c pairCase) newState() *pairState {
	vocab := c.tokens + 1
	rng := newXorshift(c.seed)
	scale := float32(math.Ldexp(1, c.scaleExp))
	fill := func(zero bool) []float32 {
		s := make([]float32, c.offset+vocab*c.dim)[c.offset:]
		for i := range s {
			if v := (rng.float() - 0.5) * scale; !zero {
				s[i] = v
			}
		}
		return s
	}
	st := &pairState{syn0: fill(false), syn1: fill(c.zeroOut), sc: newPairScratch(c.dim, c.negative, false)}
	// The scratch gradient moves off alignment with everything else.
	st.sc.grad = make([]float32, c.offset+c.dim)[c.offset:]
	st.rng = newXorshift(c.seed ^ 0x5eed)
	return st
}

// run trains c.pairs pairs through step and returns the state.
func (c pairCase) run(step func(in, syn1 []float32, dim int, target int32, table []int32, negative int, lr float32, rng *xorshift, sc *pairScratch)) *pairState {
	st := c.newState()
	// Token tokens (the last row) is never in the table, so it is a
	// target no draw can hit; every other target is hit often.
	table := make([]int32, 64)
	fillRng := newXorshift(c.seed ^ 0x7ab1e)
	for i := range table {
		table[i] = int32(fillRng.intn(c.tokens))
	}
	for p := 0; p < c.pairs; p++ {
		in := int(st.rng.intn(c.tokens+1)) * c.dim
		target := int32(st.rng.intn(c.tokens + 1))
		step(st.syn0[in:in+c.dim], st.syn1, c.dim, target, table, c.negative, 0.025, &st.rng, st.sc)
	}
	return st
}

// check runs c through both paths and compares every float they wrote,
// and the RNG they drew from, as bits.
func (c pairCase) check(t testing.TB) {
	t.Helper()
	want, got := c.run(trainPairGo), c.run(trainPair)
	for _, cmp := range []struct {
		name      string
		want, got []float32
	}{
		{"syn1", want.syn1, got.syn1},
		{"grad", want.sc.grad, got.sc.grad},
		{"in (syn0)", want.syn0, got.syn0},
	} {
		for i := range cmp.want {
			if w, g := math.Float32bits(cmp.want[i]), math.Float32bits(cmp.got[i]); w != g {
				t.Fatalf("%v: %s[%d] (row %d, dim %d): portable %v (%#08x), kernel %q %v (%#08x)",
					c, cmp.name, i, i/c.dim, i%c.dim, cmp.want[i], w, Kernel(), cmp.got[i], g)
			}
		}
	}
	if want.rng != got.rng {
		t.Fatalf("%v: the two paths drew a different number of negatives", c)
	}
}

// TestTrainPairKernelMatchesPortable sweeps every row length up to 130
// (every tail length of the eight-lane, four-lane and scalar steps)
// against the shapes that decide which way the step goes: slices at
// unaligned offsets, one, five and forty negatives (less than one
// six-row block, exactly one, several), tables whose draws hit the
// target and repeat rows, zero output rows, and weights large enough
// that the dots pass ±6 and the sigmoid clamps.
func TestTrainPairKernelMatchesPortable(t *testing.T) {
	t.Logf("kernel = %s", Kernel())
	seed := uint64(1)
	for dim := 1; dim <= 130; dim++ {
		for _, negative := range []int{1, 5, 40} {
			for _, shape := range []struct {
				tokens, scaleExp int
				zeroOut          bool
			}{
				{tokens: 2, scaleExp: 0},     // nearly every draw repeats or hits the target
				{tokens: 7, scaleExp: 3},     // some repeats; dots far beyond ±6
				{tokens: 500, scaleExp: -1},  // distinct rows, the common case
				{tokens: 500, zeroOut: true}, // the first pairs of a training run
				{tokens: 12, scaleExp: -70},  // products that underflow to subnormals and zero
			} {
				seed++
				pairCase{
					dim: dim, negative: negative, tokens: shape.tokens,
					offset: int(seed % 8), scaleExp: shape.scaleExp, zeroOut: shape.zeroOut,
					pairs: 6, seed: seed,
				}.check(t)
			}
		}
	}
}

// fuzzPairCase maps fuzzer-chosen integers onto a valid pairCase.
func fuzzPairCase(dim, negative, tokens, offset uint8, scaleExp int8, zeroOut bool, seed uint64) pairCase {
	c := pairCase{
		dim:      1 + int(dim)%160,
		negative: 1 + int(negative)%48,
		tokens:   1 + int(tokens),
		offset:   int(offset) % 16,
		scaleExp: int(scaleExp),
		zeroOut:  zeroOut,
		pairs:    4,
		seed:     seed,
	}
	// Past 2^4 a few pairs overflow float32, and which NaN an x86 add of
	// two NaNs returns depends on operand order, which the Go compiler
	// does not promise.
	if c.scaleExp > 4 {
		c.scaleExp = 4
	}
	if c.scaleExp < -80 {
		c.scaleExp = -80
	}
	return c
}

// FuzzTrainPairKernel is TestTrainPairKernelMatchesPortable with the
// fuzzer choosing the shape; the committed corpus under
// testdata/fuzz/FuzzTrainPairKernel replays the corner cases in every
// plain `go test` run.
func FuzzTrainPairKernel(f *testing.F) {
	f.Add(uint8(95), uint8(4), uint8(200), uint8(0), int8(0), false, uint64(1))
	f.Add(uint8(99), uint8(4), uint8(1), uint8(3), int8(3), false, uint64(2))
	f.Fuzz(func(t *testing.T, dim, negative, tokens, offset uint8, scaleExp int8, zeroOut bool, seed uint64) {
		fuzzPairCase(dim, negative, tokens, offset, scaleExp, zeroOut, seed).check(t)
	})
}

// BenchmarkTrainPair times the negative-sampling step (a target and
// five negatives) at the row lengths in use — 48 (the older
// benchmarks), 96 (every Config default and bench/ fixture) and 100
// (embed's own default, which leaves a four-lane tail) — over an output
// arena that fits L2 (1,024 rows) and one that does not (32,768 rows,
// 12 MB at dim 96), where the first load of each sampled row is a miss.
// One op is 65,536 steps, so that CI's one-iteration smoke
// (`-benchtime=1x`) still times a warm loop: ns/op ÷ 65,536 is the cost
// of a step.
func BenchmarkTrainPair(b *testing.B) {
	const stepsPerOp = 1 << 16
	for _, dim := range []int{48, 96, 100} {
		for _, vocab := range []int{1 << 10, 1 << 15} {
			b.Run(fmt.Sprintf("dim%d/rows%d", dim, vocab), func(b *testing.B) {
				const negative = 5
				rng := newXorshift(uint64(dim*vocab) + 1)
				syn0 := make([]float32, vocab*dim)
				syn1 := make([]float32, vocab*dim)
				for i := range syn0 {
					syn0[i] = (rng.float() - 0.5) / float32(dim)
					syn1[i] = (rng.float() - 0.5) / float32(dim)
				}
				table := make([]int32, vocab*2)
				for i := range table {
					table[i] = int32(i % vocab)
				}
				sc := newPairScratch(dim, negative, false)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N*stepsPerOp; i++ {
					in := rng.intn(vocab) * dim
					trainPair(syn0[in:in+dim], syn1, dim, int32(rng.intn(vocab)), table, negative, 0.025, &rng, sc)
				}
			})
		}
	}
}
