//go:build race

package shard

// raceEnabled reports that the race detector is active; its
// instrumentation allocates, so the allocation-budget tests skip
// themselves rather than measure the detector.
const raceEnabled = true
