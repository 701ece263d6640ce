package fnv1a

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// stdlib is the reference Sum is held to: the standard library's FNV-1a.
func stdlib(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSumAndUpdateMatchStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 1000} {
		b := randBytes(rng, n)
		want := stdlib(b)
		if got := Sum(b); got != want {
			t.Errorf("Sum over %d bytes = %#x, want %#x", n, got, want)
		}
		if got := Update(Sum(b[:n/2]), b[n/2:]); got != want {
			t.Errorf("Update split at %d of %d bytes = %#x, want %#x", n/2, n, got, want)
		}
	}
	if Sum(nil) != Offset {
		t.Errorf("Sum(nil) = %#x, want the offset basis", Sum(nil))
	}
}
