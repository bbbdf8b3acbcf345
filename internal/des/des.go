// Package des provides the deterministic per-component random streams of
// the discrete-event simulation: engine.Harness seeds the plant's
// dispatcher and the workload feed from it, one named stream each.
//
// Invariant: RNG(seed, name) derives an independent, reproducible stream
// per (seed, component-name) pair, so adding a consumer of randomness to
// one component never perturbs another's stream — the property that keeps
// run records stable across refactors and makes the determinism pins
// throughout the test suites possible.
package des

import "math/rand"

// RNG derives a deterministic random stream for the named component from
// the given master seed. Streams for distinct names are independent; the
// same (seed, name) pair always yields an identical stream.
func RNG(seed int64, name string) *rand.Rand {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(seed)
	h *= 1099511628211
	return rand.New(rand.NewSource(int64(h)))
}
