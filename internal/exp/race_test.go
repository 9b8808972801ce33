//go:build race

package exp

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
