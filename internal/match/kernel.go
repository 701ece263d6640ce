package match

import (
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// This file holds the arena-scanning query kernels: tiled multi-query
// scoring plus allocation-free top-k selection over (score, position)
// pairs. The dispatch functions dotRows/dotRows4/dotPos
// (kernel_amd64.go, kernel_generic.go) route each tile through the
// AVX2/FMA assembly when the CPU supports it and through the portable Go
// loops below otherwise.
//
// Every exact ranking path of the package — single-query TopK, the
// batched TopKBatch, token-blocked scans, the HNSW re-rank and TopKFunc
// — selects candidates with the same sorted run and the same tie rule
// (equal scores break by ascending ID), so rankings are deterministic
// and identical across kernels.

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
// base, base+1, ...) with -Inf, so selectors clamped to the live count
// provably drop them. A no-op (one branch) on unmutated indexes.
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

// topkRun is the selection state of every exact ranking path: the best
// k (score, arena position) pairs seen so far, kept best-first in a
// sorted run. "Better" means a higher score, or an equal score and a
// lexicographically smaller ID, so ties resolve to the smaller ID in
// every kernel. The first k candidates fill the run unsorted and are
// sorted once. After that a candidate that does not beat the last pair
// is rejected with one compare, and one that does is placed (see
// shortRun) with the pairs below it shifting down a slot. The run is
// then in ranking order at every step, so the result needs no sort.
// IDs are read only on exact score ties and resolved only for the final
// k results. The same run selects float64 scores for TopKFunc.
type topkRun[S float32 | float64] struct {
	run []ranked[S] // backing of length k >= 1, best-first once full
	ids []string    // full ID table, for tie comparison by position
	n   int
}

// ranked is one (score, arena position) pair of a run.
type ranked[S float32 | float64] struct {
	score S
	pos   int32
}

// ahead reports whether a ranks ahead of b.
func (r *topkRun[S]) ahead(a, b ranked[S]) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return r.ids[a.pos] < r.ids[b.pos]
}

// shortRun is the longest run filled by insertion and searched from its
// tail. A longer run is filled by one slices.SortFunc and searched by
// bisection, with one copy per shift, so a ranking of thousands costs
// about what a heap's does (insertion alone made k = 10,000 over 10,000
// rows 36x slower). The paths cross between k = 12 and 20. Selecting
// from 50, 100, 1,000 and 10,000 random scores (medians of six
// interleaved runs, 2-vCPU Xeon, Go 1.24), the long path took 1.01-1.27x
// the short one's time at k = 8 and 10, 0.79-1.14x at k = 12-20, and
// 0.62-0.96x at k = 24-48 below 10,000 rows. On the bench's batch_imdb
// (MatchAll at k = 10 over 50 and 100 rows) the long path alone read
// topk_p50_ms 8.9% higher over five alternating pairs.
const shortRun = 16

// sort orders the filled pairs best-first: by insertion when the run is
// short, by slices.SortFunc when it is long.
func (r *topkRun[S]) sort() {
	if r.n <= shortRun {
		for i := 1; i < r.n; i++ {
			c, j := r.run[i], i
			for ; j > 0 && r.ahead(c, r.run[j-1]); j-- {
				r.run[j] = r.run[j-1]
			}
			r.run[j] = c
		}
		return
	}
	slices.SortFunc(r.run[:r.n], func(a, b ranked[S]) int {
		switch {
		case r.ahead(a, b):
			return -1
		case r.ahead(b, a):
			return 1
		}
		return 0
	})
}

// consider offers one candidate to the run.
func (r *topkRun[S]) consider(s S, p int32) {
	c, k := ranked[S]{score: s, pos: p}, len(r.run)
	if r.n < k {
		r.run[r.n] = c
		if r.n++; r.n == k {
			r.sort()
		}
		return
	}
	if !r.ahead(c, r.run[k-1]) {
		return
	}
	// The last pair drops out. A short run is scanned from its tail,
	// shifting as it goes; a long one is searched, then shifted in one copy.
	i := k - 1
	if k <= shortRun {
		for ; i > 0 && r.ahead(c, r.run[i-1]); i-- {
			r.run[i] = r.run[i-1]
		}
	} else {
		i = sort.Search(i, func(j int) bool { return r.ahead(c, r.run[j]) })
		copy(r.run[i+1:], r.run[i:k-1])
	}
	r.run[i] = c
}

// merge offers a tile of scores (for positions base, base+1, ...) to
// the run. Once the run is full the common case is one load and one
// compare per row against its last score.
func (r *topkRun[S]) merge(scores []S, base int32) {
	i := 0
	for ; i < len(scores) && r.n < len(r.run); i++ {
		r.consider(scores[i], base+int32(i))
	}
	if i == len(scores) {
		return
	}
	last := r.run[r.n-1].score
	for ; i < len(scores); i++ {
		if s := scores[i]; s >= last {
			r.consider(s, base+int32(i))
			last = r.run[r.n-1].score
		}
	}
}

// results writes the run into out[:n] with IDs resolved and returns it
// with its capacity ending at its length, so an append to one ranking
// cannot reach whatever follows it in out's backing. A run that never
// filled is sorted first.
func (r *topkRun[S]) results(out []Scored) []Scored {
	if r.n < len(r.run) {
		r.sort()
	}
	out = out[:r.n:r.n]
	for i, c := range r.run[:r.n] {
		out[i] = Scored{ID: r.ids[c.pos], Score: float64(c.score)}
	}
	return out
}

// scanScratch is the per-call working memory of the exact scans: the
// normalized query block, the selectors with their backing, and the
// score tile. Leased from scanPool, so a scan allocates only what it
// returns.
type scanScratch struct {
	qs   []float32         // b x dim normalized queries, back to back
	tile []float32         // 4 x tile scores, query j's at [j*tile, (j+1)*tile)
	sel  []ranked[float32] // b x k selector backing
	runs []topkRun[float32]
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

func leaseScan() *scanScratch { return scanPool.Get().(*scanScratch) }

// release returns the scratch to the pool without the ID table its
// selectors point at.
func (sc *scanScratch) release() {
	clear(sc.runs)
	scanPool.Put(sc)
}

// queries copies the batch into the query block, each row zero-padded
// to dim and normalized, and returns the block.
func (sc *scanScratch) queries(queries [][]float32, dim int) []float32 {
	sc.qs = grow(sc.qs, len(queries)*dim)
	for i, q := range queries {
		row := sc.qs[i*dim : (i+1)*dim]
		clear(row[copy(row, q):])
		embed.Normalize(row)
	}
	return sc.qs
}

// selectors returns b empty runs of capacity k over the given ID table.
func (sc *scanScratch) selectors(b, k int, ids []string) []topkRun[float32] {
	sc.sel, sc.runs = grow(sc.sel, b*k), grow(sc.runs, b)
	for i := range sc.runs {
		lo, hi := i*k, (i+1)*k
		sc.runs[i] = topkRun[float32]{run: sc.sel[lo:hi:hi], ids: ids}
	}
	return sc.runs
}

// dotBlock scores a group of one to four queries (the block qs,
// len(qs)/dim queries back to back) against rows contiguous arena rows:
// query j's scores go to out[j*stride : j*stride+rows]. A full group
// goes through dotRows4, which loads each row once for all four, a
// smaller one a query at a time through dotRows; both give every score
// dotRows' bits.
func dotBlock(arena, qs, out []float32, rows, dim, stride int) {
	nq := len(qs) / dim
	if nq == 4 {
		dotRows4(arena, qs, out, rows, dim, stride)
		return
	}
	for j := 0; j < nq; j++ {
		dotRows(arena[:rows*dim], qs[j*dim:(j+1)*dim], out[j*stride:j*stride+rows], dim)
	}
}

// dotRows4Go is the portable four-query loop: dotRowsGo once per query.
func dotRows4Go(arena, q4, out []float32, rows, dim, stride int) {
	for j := 0; j < 4; j++ {
		dotRowsGo(arena[:rows*dim], q4[j*dim:(j+1)*dim], out[j*stride:j*stride+rows], dim)
	}
}

// TopKBatch ranks every query of the batch against the whole index in
// one blocked pass: the arena is walked tile by tile, each tile scored
// for all queries while it is cache-resident (four queries per row load
// where the kernel allows), and each query's scores feed its sorted-run
// selector. Results are position-aligned with queries and identical to
// calling TopK per query. The working memory is pooled; a call
// allocates the outer slice and one slab its rankings are cut from,
// each capped at its own length.
func (x *Index) TopKBatch(queries [][]float32, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	n := x.rows()
	if k <= 0 || x.Len() == 0 || len(queries) == 0 {
		return out
	}
	// Clamp to the live count: tombstoned rows score -Inf below and a
	// run no longer than the live count provably drops them all.
	k = min(k, x.Len())
	dim, b := x.dim, len(queries)
	sc := leaseScan()
	defer sc.release()
	qs := sc.queries(queries, dim)
	runs := sc.selectors(b, k, x.ids)
	tile := min(tileRowsFor(dim), n)
	sc.tile = grow(sc.tile, 4*tile)
	for r0 := 0; r0 < n; r0 += tile {
		m := min(tile, n-r0)
		rows := x.data[r0*dim : (r0+m)*dim]
		// Four queries at a time, so their scores stay cache-resident
		// until their selectors have consumed them.
		for q0 := 0; q0 < b; q0 += 4 {
			q1 := min(q0+4, b)
			dotBlock(rows, qs[q0*dim:q1*dim], sc.tile, m, dim, tile)
			for i := q0; i < q1; i++ {
				scores := sc.tile[(i-q0)*tile : (i-q0)*tile+m]
				x.zapDead(scores, r0)
				runs[i].merge(scores, int32(r0))
			}
		}
	}
	slab := make([]Scored, b*k)
	for i := range runs {
		out[i] = runs[i].results(slab[i*k:])
	}
	return out
}
