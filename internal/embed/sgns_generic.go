//go:build !amd64 || purego

package embed

// Kernel names the negative-sampling implementation this process
// trains with: always "portable" off amd64 and under the purego tag.
func Kernel() string { return "portable" }

// trainPair is trainPairGo: no vector kernel is compiled in.
func trainPair(in, syn1 []float32, dim int, target int32, table []int32, negative int, lr float32, rng *xorshift, sc *pairScratch) {
	trainPairGo(in, syn1, dim, target, table, negative, lr, rng, sc)
}
