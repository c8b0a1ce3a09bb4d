//go:build race

package proxy

// raceEnabled skips the allocation budgets under the race detector, which
// makes sync.Pool drop items at random.
const raceEnabled = true
