//go:build amd64 && !purego

package match

import "github.com/tdmatch/tdmatch/internal/cpu"

// useFMA gates the AVX2/FMA assembly kernels; when false every scoring
// call takes the portable Go path. Initialized once from the shared
// CPU probe: the kernels need 256-bit vector registers with an OS that
// saves the YMM state (OSXSAVE + XCR0 bits 1-2), which the AVX2 flag
// implies, and FMA3.
var useFMA = cpu.AVX2 && cpu.FMA

// dotRowsFMA scores rows contiguous dim-sized vectors at arena against
// the query q, one float32 per row into out. Implemented in
// kernel_amd64.s; callers must check useFMA.
//
//go:noescape
func dotRowsFMA(arena, q, out *float32, rows, dim int)

// dotRows4FMA is dotRowsFMA for four queries at once: q holds them back
// to back (dim floats each) and query j's score of row r goes to
// out[j*stride+r]. Each row chunk is loaded once for all four queries,
// and each query keeps dotRowsFMA's accumulation and reduction order,
// so every score has the bits a dotRowsFMA call for that query gives.
// Implemented in kernel_amd64.s; callers must check useFMA.
//
//go:noescape
func dotRows4FMA(arena, q, out *float32, rows, dim, stride int)

// dotPosFMA is dotRowsFMA over n scattered arena rows (row j is row
// pos[j] of the arena), stopping after the first score above stop; it
// returns that row's index, or n. Implemented in kernel_amd64.s;
// callers must check useFMA and the bounds of pos.
//
//go:noescape
func dotPosFMA(arena *float32, pos *int32, q, out *float32, n, dim int, stop float32) int

// dotRows fills out[r] with the dot product of query q and each of the
// len(out) contiguous dim-sized rows starting at arena[0], dispatching
// to the FMA kernel when the CPU supports it.
func dotRows(arena, q, out []float32, dim int) {
	if len(out) == 0 {
		return
	}
	if useFMA {
		dotRowsFMA(&arena[0], &q[0], &out[0], len(out), dim)
		return
	}
	dotRowsGo(arena, q, out, dim)
}

// dotRows4 scores four queries, back to back in q4, against rows
// contiguous arena rows: query j's scores go to out[j*stride : j*stride+rows],
// each with the bits dotRows gives it.
func dotRows4(arena, q4, out []float32, rows, dim, stride int) {
	if rows == 0 {
		return
	}
	if useFMA {
		_, _, _ = arena[rows*dim-1], q4[4*dim-1], out[3*stride+rows-1]
		dotRows4FMA(&arena[0], &q4[0], &out[0], rows, dim, stride)
		return
	}
	dotRows4Go(arena, q4, out, rows, dim, stride)
}

// dotPos is the scattered-position form of dotRows: out[j] is the dot
// product of q and arena row positions[j], scored in list order until
// the first score strictly above stop. It returns that row's index in
// positions, or len(positions) when every row was scored. Positions
// must be valid arena rows.
func dotPos(arena []float32, positions []int32, q, out []float32, dim int, stop float32) int {
	if len(positions) == 0 {
		return 0
	}
	if useFMA {
		_, _ = q[dim-1], out[len(positions)-1]
		return dotPosFMA(&arena[0], &positions[0], &q[0], &out[0], len(positions), dim, stop)
	}
	return dotPosGo(arena, positions, q, out, dim, stop)
}
