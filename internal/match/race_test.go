//go:build race

package match

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back, so allocation counts are not the program's.
const raceEnabled = true
