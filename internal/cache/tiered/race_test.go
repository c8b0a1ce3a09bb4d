//go:build race

package tiered

// raceEnabled skips the allocation budgets under the race detector: they
// are the counts of a normal build.
const raceEnabled = true
