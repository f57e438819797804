//go:build race

package recyclesim

// raceEnabled reports whether the race detector is compiled in; under
// it sync.Pool drops items at random, so the pooled-run allocation
// guard skips.
const raceEnabled = true
