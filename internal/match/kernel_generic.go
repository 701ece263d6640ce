//go:build !amd64 || purego

package match

// useFMA is always false off amd64 and under the purego tag: every
// scoring call takes the portable Go kernels.
const useFMA = false

// dotRows fills out[r] with the dot product of query q and each of the
// len(out) contiguous dim-sized rows starting at arena[0].
func dotRows(arena, q, out []float32, dim int) {
	dotRowsGo(arena, q, out, dim)
}

// dotPos is the scattered-position form of dotRows: out[j] is the dot
// product of q and arena row positions[j], scored in list order until
// the first score strictly above stop. It returns that row's index in
// positions, or len(positions) when every row was scored.
func dotPos(arena []float32, positions []int32, q, out []float32, dim int, stop float32) int {
	return dotPosGo(arena, positions, q, out, dim, stop)
}

// dotRows4 scores four queries, back to back in q4, against rows
// contiguous arena rows: query j's scores go to out[j*stride : j*stride+rows].
func dotRows4(arena, q4, out []float32, rows, dim, stride int) {
	dotRows4Go(arena, q4, out, rows, dim, stride)
}
