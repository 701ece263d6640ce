package match

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// kernelDims covers the three kernel code paths (16-lane blocks, the
// 8-lane step, the scalar tail) and their combinations.
var kernelDims = []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 40, 48, 63, 64, 65, 96, 97, 130}

// TestDotRowsAgainstFloat64Reference checks the active float32 kernel
// (FMA assembly where supported, the Go loop elsewhere) against a
// float64 accumulation for every dim/row shape.
func TestDotRowsAgainstFloat64Reference(t *testing.T) {
	t.Logf("useFMA = %v", useFMA)
	rng := rand.New(rand.NewSource(42))
	for _, dim := range kernelDims {
		for _, rows := range []int{1, 2, 5, 17} {
			arena := make([]float32, rows*dim)
			q := make([]float32, dim)
			for i := range arena {
				arena[i] = rng.Float32()*2 - 1
			}
			for i := range q {
				q[i] = rng.Float32()*2 - 1
			}
			out := make([]float32, rows)
			dotRows(arena, q, out, dim)
			for r := 0; r < rows; r++ {
				var want float64
				for d := 0; d < dim; d++ {
					want += float64(arena[r*dim+d]) * float64(q[d])
				}
				if math.Abs(float64(out[r])-want) > 1e-4*float64(dim) {
					t.Fatalf("dim=%d rows=%d row=%d: got %v, want %v", dim, rows, r, out[r], want)
				}
			}
		}
	}
}

// TestGoKernelsMatchDispatch pins the portable loop to the dispatched
// kernel's behavior: the two agree within float32 rounding of each
// other (summation order differs between the FMA kernel and the scalar
// loop).
func TestGoKernelsMatchDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const dim, rows = 40, 9
	arena := make([]float32, rows*dim)
	q := make([]float32, dim)
	for i := range arena {
		arena[i] = rng.Float32()*2 - 1
	}
	for i := range q {
		q[i] = rng.Float32()*2 - 1
	}
	a, b := make([]float32, rows), make([]float32, rows)
	dotRows(arena, q, a, dim)
	dotRowsGo(arena, q, b, dim)
	for r := range a {
		if math.Abs(float64(a[r]-b[r])) > 1e-4 {
			t.Fatalf("row %d: dispatched %v vs Go %v", r, a[r], b[r])
		}
	}
}

// kernelTestIndex builds an index with deliberate score ties: vector
// duplicates and zero rows exercise the ID tie-break on every boundary.
func kernelTestIndex(t *testing.T, n, dim int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, n)
	vecs := make([][]float32, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%04d", i)
		switch {
		case i%7 == 3 && i > 0:
			vecs[i] = vecs[i-1] // duplicate: exact score tie with i-1
		case i%11 == 5:
			vecs[i] = make([]float32, dim) // zero row: ties with every zero row
		default:
			v := make([]float32, dim)
			for d := range v {
				v[d] = rng.Float32()*2 - 1
			}
			vecs[i] = v
		}
	}
	idx, err := NewIndex(ids, vecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestTopKBatchBitIdenticalToSerialTopK is the batched-kernel parity
// guarantee: at every batch size, TopKBatch must return exactly what
// one TopK call per query returns — same IDs, same float64 scores,
// same tie order.
func TestTopKBatchBitIdenticalToSerialTopK(t *testing.T) {
	const n, dim = 300, 33
	idx := kernelTestIndex(t, n, dim, 1)
	rng := rand.New(rand.NewSource(2))
	allQueries := make([][]float32, 17)
	for i := range allQueries {
		q := make([]float32, dim)
		for d := range q {
			q[d] = rng.Float32()*2 - 1
		}
		if i%5 == 4 {
			q = make([]float32, dim) // zero query: every target ties at 0
		}
		allQueries[i] = q
	}
	for _, k := range []int{1, 3, 10, n, n + 5} {
		for batch := 1; batch <= len(allQueries); batch++ {
			queries := allQueries[:batch]
			got := idx.TopKBatch(queries, k)
			if len(got) != batch {
				t.Fatalf("k=%d batch=%d: %d results", k, batch, len(got))
			}
			for qi, q := range queries {
				want := idx.TopK(q, k)
				if !reflect.DeepEqual(got[qi], want) {
					t.Fatalf("k=%d batch=%d query=%d: batched ranking diverged\nbatch:  %v\nserial: %v",
						k, batch, qi, got[qi], want)
				}
			}
		}
	}
}

// TestTopKMatchesTopKFunc cross-validates the kernel's selection heap
// against the generic TopKFunc selection over the same per-row scores:
// two independent selection implementations must agree bit-for-bit,
// ties included.
func TestTopKMatchesTopKFunc(t *testing.T) {
	const n, dim = 257, 24
	idx := kernelTestIndex(t, n, dim, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		query := make([]float32, dim)
		for d := range query {
			query[d] = rng.Float32()*2 - 1
		}
		k := 1 + rng.Intn(n+3)
		got := idx.TopK(query, k)
		q := make([]float32, dim)
		copy(q, query)
		embed.Normalize(q)
		want := TopKFunc(idx.ids, func(i int) float64 {
			return float64(dotOne(idx.row(i), q))
		}, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d k=%d: kernel heap diverged from TopKFunc\nkernel:  %v\ngeneric: %v",
				trial, k, got, want)
		}
	}
}

// TestTopKBatchEdgeCases covers empty batches, k <= 0 and empty
// indexes, which must all degrade exactly like serial TopK.
func TestTopKBatchEdgeCases(t *testing.T) {
	idx := kernelTestIndex(t, 10, 8, 8)
	if got := idx.TopKBatch(nil, 5); len(got) != 0 {
		t.Errorf("nil batch = %v", got)
	}
	if got := idx.TopKBatch([][]float32{{1, 0, 0, 0, 0, 0, 0, 0}}, 0); got[0] != nil {
		t.Errorf("k=0 = %v", got[0])
	}
	empty, err := NewIndex(nil, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.TopKBatch([][]float32{{1, 0, 0, 0, 0, 0, 0, 0}}, 3); got[0] != nil {
		t.Errorf("empty index = %v", got[0])
	}
}
