//go:build amd64 && !purego

package embed

import "github.com/tdmatch/tdmatch/internal/cpu"

// useAVX2 gates the assembly negative-sampling step; when false every
// pair takes trainPairGo. The kernels multiply and add separately, so
// they need AVX2 alone, not FMA3.
var useAVX2 = cpu.AVX2

// Kernel names the negative-sampling implementation this process
// trains with: "avx2" or "portable".
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// sgnsPrefetch requests the cache lines of rows toks[0:n] of syn1: a
// hint, which changes no result. Implemented in sgns_amd64.s; callers
// must check useAVX2.
//
//go:noescape
func sgnsPrefetch(syn1 *float32, toks *int32, n, dim int)

// sgnsDots stores in f[j] the dot of in[:dim] with row toks[j] of syn1,
// for j in [0, n), in Dot's summation order. Implemented in
// sgns_amd64.s; callers must check useAVX2 and the bounds of every row.
//
//go:noescape
func sgnsDots(in, syn1 *float32, toks *int32, f *float32, n, dim int)

// sgnsUpdate applies gradient gs[j] to row toks[j] of syn1 for j in
// [0, n), in order: grad += gs[j]*row, then row += gs[j]*in, products
// rounded before they are added. Implemented in sgns_amd64.s; callers
// must check useAVX2 and the bounds of every row.
//
//go:noescape
func sgnsUpdate(in, syn1 *float32, toks *int32, gs, grad *float32, n, dim int)

// addAVX2 is Add over dim elements. Implemented in sgns_amd64.s;
// callers must check useAVX2.
//
//go:noescape
func addAVX2(dst, src *float32, dim int)

// trainPair performs one positive + k negative updates for input vector
// in against target token and sampled negatives, leaving the input-side
// gradient in sc.grad: trainPairGo's contract and, bit for bit, its
// result, through the AVX2 kernels when the CPU has them.
func trainPair(in, syn1 []float32, dim int, target int32, table []int32, negative int, lr float32, rng *xorshift, sc *pairScratch) {
	if !useAVX2 {
		trainPairGo(in, syn1, dim, target, table, negative, lr, rng, sc)
		return
	}
	in = in[:dim]
	grad := sc.grad[:dim]
	clear(grad)
	// Draw first, in trainPairGo's RNG order (a draw equal to the target
	// is dropped there too): with every row known up front the kernel
	// can prefetch them all and score them together.
	toks, f := sc.toks[:negative+1], sc.f[:negative+1]
	toks[0] = target
	_ = syn1[int(target)*dim+dim-1]
	n := 1
	mask := uint64(len(table) - 1)
	for k := 0; k < negative; k++ {
		tok := table[rng.next()&mask]
		if tok == target {
			continue
		}
		_ = syn1[int(tok)*dim+dim-1] // the kernels do not bounds-check
		toks[n] = tok
		n++
	}
	sgnsPrefetch(&syn1[0], &toks[0], n, dim)
	// in is not written until the closing add and distinct rows do not
	// interact, so the dots of a run of distinct rows are independent and
	// are scored in one call before any of the rows is updated. A draw
	// that repeats a row of the run starts a new run, so that its dot
	// sees the earlier update as it does in the portable loop.
	for lo := 0; lo < n; {
		hi := distinctRun(toks[:n], lo)
		sgnsDots(&in[0], &syn1[0], &toks[lo], &f[lo], hi-lo, dim)
		for j := lo; j < hi; j++ {
			var label float32
			if j == 0 {
				label = 1
			}
			f[j] = (label - sigmoidFast(f[j])) * lr
		}
		sgnsUpdate(&in[0], &syn1[0], &toks[lo], &f[lo], &grad[0], hi-lo, dim)
		lo = hi
	}
	addAVX2(&in[0], &grad[0], dim)
}

// distinctRun returns the end of the longest run toks[lo:hi] holding no
// token twice.
func distinctRun(toks []int32, lo int) int {
	for hi := lo + 1; hi < len(toks); hi++ {
		for j := lo; j < hi; j++ {
			if toks[j] == toks[hi] {
				return hi
			}
		}
	}
	return len(toks)
}
