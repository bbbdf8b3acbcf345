//go:build race

package fleet

// raceEnabled reports whether the test binary runs under the race detector,
// where sync.Pool drops a quarter of its Puts on purpose and an exact
// allocation pin through a pool does not hold.
const raceEnabled = true
