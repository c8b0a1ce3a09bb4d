//go:build !race

package tiered

// raceEnabled reports whether the race detector is on. See race_test.go.
const raceEnabled = false
