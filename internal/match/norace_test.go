//go:build !race

package match

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
