//go:build race

package main

// raceEnabled reports whether the test binary runs under the race detector,
// where sync.Pool drops a quarter of its Puts on purpose and allocation
// pins through a pool do not hold.
const raceEnabled = true
