package match

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// TestTopKMatchesTopKFunc cross-validates the tiled scan against the
// generic TopKFunc over per-row scores of the same kernel: the two must
// agree bit-for-bit, ties included. Both select with the sorted run;
// FuzzDotRowsBlock and TestTopKFuncAgainstFullSort hold that run to a
// sort.Slice reference.
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

// TestTopKBatchAllocatesOnlyItsResults: the scan's working memory (the
// normalized query block, the selectors and the score tile) comes from
// a pool, so a TopKBatch call allocates the outer slice and the one slab
// its rankings are cut from, and nothing else, at any batch size.
func TestTopKBatchAllocatesOnlyItsResults(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n, dim, k = 300, 33, 10
	idx := kernelTestIndex(t, n, dim, 5)
	rng := rand.New(rand.NewSource(6))
	for _, b := range []int{1, 4, 7, 32} {
		queries := make([][]float32, b)
		for i := range queries {
			queries[i] = make([]float32, dim)
			for d := range queries[i] {
				queries[i][d] = rng.Float32()*2 - 1
			}
		}
		idx.TopKBatch(queries, k) // size the pooled scratch
		if allocs := testing.AllocsPerRun(50, func() { idx.TopKBatch(queries, k) }); allocs > 2 {
			t.Errorf("batch %d: %v allocations a call, want 2 (the outer slice and the ranking slab)", b, allocs)
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

// FuzzDotRowsBlock holds the multi-query scan to the one-query kernel
// and a reference sort. For a random dim (1–300), 0–70 rows with
// duplicated and zero rows (exact score ties), and a batch of 1–9
// queries, it checks that dotBlock, fed groups of four as TopKBatch
// feeds it (a full group through dotRows4, a short last one through
// dotRows), gives every score the bits of a per-query dotRows call
// without writing outside each query's stride, and that TopKBatch ranks every query exactly like sorting all
// live rows by (score desc, ID asc), with some rows tombstoned.
func FuzzDotRowsBlock(f *testing.F) {
	// Seeds at dims 1, 7, 8, 16, 24, 33, 96, 200 and 300 (dimIn is dim-1).
	for _, dim := range []uint16{1, 7, 8, 16, 24, 33, 96, 200, 300} {
		f.Add(dim-1, uint8(70), uint8(9), uint8(10), int64(dim))
		f.Add(dim-1, uint8(5), uint8(4), uint8(3), int64(dim)+1)
	}
	f.Add(uint16(95), uint8(0), uint8(5), uint8(1), int64(3))
	f.Add(uint16(95), uint8(1), uint8(1), uint8(1), int64(4))
	// k beyond shortRun: a run sorted once full, then searched.
	f.Add(uint16(23), uint8(70), uint8(6), uint8(40), int64(5))
	f.Add(uint16(95), uint8(70), uint8(9), uint8(72), int64(6))
	f.Fuzz(func(t *testing.T, dimIn uint16, rowsIn, batchIn, kIn uint8, seed int64) {
		dim := 1 + int(dimIn)%300
		rows := int(rowsIn) % 71
		batch := 1 + int(batchIn)%9
		rng := rand.New(rand.NewSource(seed))
		vecs := make([][]float32, rows)
		for r := range vecs {
			switch {
			case r > 0 && rng.Intn(4) == 0:
				vecs[r] = vecs[rng.Intn(r)] // an exact tie with an earlier row
			case rng.Intn(9) == 0:
				vecs[r] = make([]float32, dim) // ties with every zero row
			default:
				v := make([]float32, dim)
				for d := range v {
					v[d] = rng.Float32()*2 - 1
				}
				vecs[r] = v
			}
		}
		queries := make([][]float32, batch)
		qs := make([]float32, batch*dim)
		for i := range queries {
			q := qs[i*dim : (i+1)*dim]
			for d := range q {
				q[d] = rng.Float32()*2 - 1
			}
			queries[i] = q
		}

		// Scores: the block against one dotRows call per query.
		arena := make([]float32, rows*dim)
		for r, v := range vecs {
			copy(arena[r*dim:], v)
		}
		stride := rows + 3
		const canary = float32(12345)
		got := make([]float32, batch*stride)
		for i := range got {
			got[i] = canary
		}
		for q0 := 0; q0 < batch; q0 += 4 {
			q1 := min(q0+4, batch)
			dotBlock(arena, qs[q0*dim:q1*dim], got[q0*stride:], rows, dim, stride)
		}
		want := make([]float32, rows)
		for j := 0; j < batch; j++ {
			dotRows(arena, qs[j*dim:(j+1)*dim], want, dim)
			for r := range want {
				if g := got[j*stride+r]; math.Float32bits(g) != math.Float32bits(want[r]) {
					t.Fatalf("dim=%d rows=%d batch=%d: query %d row %d scored %v (%#x), one-query kernel %v (%#x)",
						dim, rows, batch, j, r, g, math.Float32bits(g), want[r], math.Float32bits(want[r]))
				}
			}
			for r := rows; r < stride; r++ {
				if got[j*stride+r] != canary {
					t.Fatalf("dim=%d rows=%d batch=%d: query %d wrote past its rows at %d", dim, rows, batch, j, r)
				}
			}
		}

		// Rankings: TopKBatch against a full sort of the live rows. IDs
		// run against row order, so ties do not break by position.
		ids := make([]string, rows)
		for r := range ids {
			ids[r] = fmt.Sprintf("d%03d", (r*37)%101)
		}
		idx, err := NewIndex(ids, vecs, dim)
		if err != nil {
			t.Fatal(err)
		}
		var gone []string
		for r := range ids {
			if rng.Intn(6) == 0 {
				gone = append(gone, ids[r])
			}
		}
		idx.Remove(gone)
		k := 1 + int(kIn)%(rows+3)
		ranked := idx.TopKBatch(queries, k)
		if len(ranked) != batch {
			t.Fatalf("%d rankings for %d queries", len(ranked), batch)
		}
		for j, q := range queries {
			qn := append([]float32(nil), q...)
			embed.Normalize(qn)
			scores := make([]float32, rows)
			dotRows(idx.data, qn, scores, dim)
			var live []int
			for r := range ids {
				if !idx.isDead(r) {
					live = append(live, r)
				}
			}
			sort.Slice(live, func(a, b int) bool {
				sa, sb := scores[live[a]], scores[live[b]]
				if sa != sb {
					return sa > sb
				}
				return ids[live[a]] < ids[live[b]]
			})
			live = live[:min(k, len(live))]
			if len(ranked[j]) != len(live) {
				t.Fatalf("query %d k=%d: %d results, want %d", j, k, len(ranked[j]), len(live))
			}
			for i, r := range live {
				if w := (Scored{ID: ids[r], Score: float64(scores[r])}); ranked[j][i] != w {
					t.Fatalf("query %d k=%d rank %d: %v, reference %v\ngot  %v", j, k, i, ranked[j][i], w, ranked[j])
				}
			}
		}
	})
}
