//go:build race

// Package race reports whether the binary was built with the race
// detector. Under it sync.Pool drops a quarter of its Puts on purpose, so an
// exact allocation pin through a pool does not hold; the tests of pooled
// paths read Enabled to skip only that assertion.
package race

// Enabled reports whether the race detector is on.
const Enabled = true
