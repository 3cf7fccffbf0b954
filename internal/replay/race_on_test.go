//go:build race

package replay

// raceDetector reports whether the test binary runs under the race
// detector, which slows the engine several-fold and unevenly: wall-clock
// budgets are not asserted there.
const raceDetector = true
