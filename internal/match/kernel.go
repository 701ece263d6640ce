package match

import (
	"math"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// This file holds the arena-scanning query kernels: tiled multi-query
// scoring plus allocation-free top-k selection over (score, position)
// pairs. The dispatch functions dotRows/dotPos (kernel_amd64.go,
// kernel_generic.go) route each tile through the AVX2/FMA assembly when
// the CPU supports it and through the portable Go loops below otherwise.
//
// Every ranking path of the package — single-query TopK, the batched
// TopKBatch, token-blocked scans and the HNSW re-rank —
// selects candidates with the same heap and the same tie rule (equal
// scores break by ascending ID), so rankings are deterministic and
// identical across kernels.

// tileFloats bounds one arena tile to 32KB of float32s, so a tile loaded
// for the first query of a batch is still cache-resident when the last
// query scores it — the whole point of batching: one arena read
// amortized over the batch.
const tileFloats = 8192

// tileRowsFor returns the number of dim-sized rows per scan tile.
func tileRowsFor(dim int) int {
	t := tileFloats / dim
	if t < 8 {
		t = 8
	}
	if t > 1024 {
		t = 1024
	}
	return t
}

// dotRowsGo is the portable scoring loop: one four-wide unrolled dot
// per row (identical summation order to embed.Dot, so scattered-
// position paths and tiled paths agree bit-for-bit off amd64 too).
func dotRowsGo(arena, q, out []float32, dim int) {
	for r := range out {
		out[r] = embed.Dot(arena[r*dim:(r+1)*dim], q)
	}
}

// dotPosGo is the portable scattered-position loop: dotRowsGo's per-row
// dot over the listed rows, with the early stop of dotPos.
func dotPosGo(arena []float32, positions []int32, q, out []float32, dim int, stop float32) int {
	for j, p := range positions {
		s := embed.Dot(arena[int(p)*dim:(int(p)+1)*dim], q)
		out[j] = s
		if s > stop {
			return j
		}
	}
	return len(positions)
}

// zapDead overwrites the scores of tombstoned rows in a tile (positions
// base, base+1, ...) with -Inf, so selection heaps clamped to the live
// count provably evict them. A no-op (one branch) on unmutated indexes.
func (x *Index) zapDead(scores []float32, base int) {
	if x.nDead == 0 {
		return
	}
	for j := range scores {
		if x.dead[base+j] {
			scores[j] = negInf
		}
	}
}

// dotOne scores a single arena row against the normalized query with
// the same kernel (and thus the same rounding) as the tiled scans, so
// scattered-position paths (token blocking, HNSW re-rank)
// rank identically to the full scan.
func dotOne(row, q []float32) float32 {
	var out [1]float32
	dotRows(row, q, out[:], len(row))
	return out[0]
}

// posInf as dotPos's stop scores every listed row.
var posInf = float32(math.Inf(1))

// dotPositions scores the rows at the given positions against q into
// out[:len(positions)] with the tiled scans' kernel in one call — see
// dotPos for the stop rule and the return value.
func (x *Index) dotPositions(positions []int32, q, out []float32, stop float32) int {
	return dotPos(x.data, positions, q, out, x.dim, stop)
}

// topkHeap is a fixed-capacity min-heap over (score, arena position)
// with the worst resident at the root: the allocation-free selection
// state of every ranking path. "Worse" means lower score, or equal
// score and lexicographically greater ID — so ties always resolve to
// the smaller ID, in every kernel. IDs are consulted only on exact
// score ties and materialized only for the final k results.
type topkHeap struct {
	score []float32 // backing of capacity k; score[i] pairs with pos[i]
	pos   []int32
	ids   []string // full index ID table, for tie comparison by position
	k     int
	n     int
}

// newTopkHeap returns a heap selecting the best k of the index's rows.
func newTopkHeap(score []float32, pos []int32, ids []string, k int) topkHeap {
	return topkHeap{score: score, pos: pos, ids: ids, k: k}
}

// worse reports whether candidate (s, p) ranks below resident i.
func (h *topkHeap) worse(s float32, p int32, i int) bool {
	if s != h.score[i] {
		return s < h.score[i]
	}
	return h.ids[p] > h.ids[h.pos[i]]
}

// consider offers one candidate to the heap.
func (h *topkHeap) consider(s float32, p int32) {
	if h.n < h.k {
		h.score[h.n], h.pos[h.n] = s, p
		h.siftUp(h.n)
		h.n++
		return
	}
	// Full: replace the root only when the candidate beats it (higher
	// score, or equal score and smaller ID).
	if s < h.score[0] {
		return
	}
	if s == h.score[0] && h.ids[p] >= h.ids[h.pos[0]] {
		return
	}
	h.score[0], h.pos[0] = s, p
	h.siftDown(0)
}

// merge offers a tile of scores (for positions base, base+1, ...) to
// the heap. Once the heap is full the common case is one load and one
// compare per row: candidates not beating the current worst resident
// are rejected before any heap work.
func (h *topkHeap) merge(scores []float32, base int32) {
	i := 0
	for ; i < len(scores) && h.n < h.k; i++ {
		h.consider(scores[i], base+int32(i))
	}
	if h.n == 0 {
		return
	}
	root := h.score[0]
	for ; i < len(scores); i++ {
		s := scores[i]
		if s < root {
			continue
		}
		h.consider(s, base+int32(i))
		root = h.score[0]
	}
}

// siftUp restores the heap property after placing a new entry at i.
func (h *topkHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(h.score[i], h.pos[i], parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (h *topkHeap) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < h.n && h.worse(h.score[l], h.pos[l], worst) {
			worst = l
		}
		if r := 2*i + 2; r < h.n && h.worse(h.score[r], h.pos[r], worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.swap(i, worst)
		i = worst
	}
}

func (h *topkHeap) swap(i, j int) {
	h.score[i], h.score[j] = h.score[j], h.score[i]
	h.pos[i], h.pos[j] = h.pos[j], h.pos[i]
}

// sortBestFirst reorders the residents in place best-first (score
// descending, ties by ascending ID) and returns them. The worst
// resident sits at the root, so moving it behind a shrinking heap — a
// heapsort — leaves exactly that order, with no buffer beside the
// heap's own backing. The heap property is gone afterwards.
func (h *topkHeap) sortBestFirst() ([]int32, []float32) {
	n := h.n
	for h.n > 1 {
		h.n--
		h.swap(0, h.n)
		h.siftDown(0)
	}
	h.n = n
	return h.pos[:n], h.score[:n]
}

// results writes the residents best-first with ID tie-breaking into
// out[:n] — ordered in place by sortBestFirst, IDs resolved once per
// resident, the only point where the selection reads them — and
// returns that ranking with its capacity ending at its length, so an
// append to it cannot reach whatever follows it in out's backing.
func (h *topkHeap) results(out []Scored) []Scored {
	pos, score := h.sortBestFirst()
	out = out[:len(pos):len(pos)]
	for i, p := range pos {
		out[i] = Scored{ID: h.ids[p], Score: float64(score[i])}
	}
	return out
}

// TopKBatch ranks every query of the batch against the whole index in
// one blocked pass: the arena is walked tile by tile, each tile scored
// for all queries while it is cache-resident, and each query feeds its
// fixed-size selection heap. Results are position-aligned with queries
// and identical to calling TopK per query. Batching amortizes the
// arena read over the batch — the MatchAll and serve-batch hot path.
// The rankings share one backing slab, each capped at its own length.
func (x *Index) TopKBatch(queries [][]float32, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	n := x.rows()
	if k <= 0 || x.Len() == 0 || len(queries) == 0 {
		return out
	}
	if k > x.Len() {
		// Clamp to the live count: tombstoned rows score -Inf below and a
		// heap no larger than the live count provably evicts them all.
		k = x.Len()
	}
	dim := x.dim
	b := len(queries)
	qs := make([]float32, b*dim)
	for i, q := range queries {
		row := qs[i*dim : (i+1)*dim]
		copy(row, q)
		embed.Normalize(row)
	}
	scoreBack := make([]float32, b*k)
	posBack := make([]int32, b*k)
	heaps := make([]topkHeap, b)
	for i := range heaps {
		heaps[i] = newTopkHeap(scoreBack[i*k:(i+1)*k], posBack[i*k:(i+1)*k], x.ids, k)
	}
	tile := tileRowsFor(dim)
	if tile > n {
		tile = n
	}
	scores := make([]float32, tile)
	for r0 := 0; r0 < n; r0 += tile {
		m := tile
		if r0+m > n {
			m = n - r0
		}
		rows := x.data[r0*dim : (r0+m)*dim]
		for i := range heaps {
			dotRows(rows, qs[i*dim:(i+1)*dim], scores[:m], dim)
			x.zapDead(scores[:m], r0)
			heaps[i].merge(scores[:m], int32(r0))
		}
	}
	slab := make([]Scored, b*k)
	for i := range heaps {
		out[i] = heaps[i].results(slab[i*k:])
	}
	return out
}
