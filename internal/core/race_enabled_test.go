//go:build race

package core

// raceEnabled reports that this binary was built with -race: the full
// equivalence sweep is ~15x slower under the detector, so it shrinks
// to a representative corner while the search engine's concurrency is
// race-tested directly in internal/dds (SGD runs serially and starts
// no goroutines).
const raceEnabled = true
