// Package des provides the deterministic per-component random streams of
// the discrete-event simulation: engine.Harness seeds the plant's
// dispatcher and the workload feed from it, and every object store is
// built from it, one named stream each.
//
// Invariant, both halves:
//
//   - Partitioned: RNG(seed, name) derives an independent, reproducible
//     stream per (seed, component-name) pair, so adding a consumer of
//     randomness to one component never perturbs another's stream — the
//     property that keeps run records stable across refactors and makes
//     the determinism pins throughout the test suites possible.
//   - Enumerable: a Stream is its whole state, 16 bytes of plain data that
//     MarshalBinary writes and UnmarshalBinary reads back mid-stream, and
//     the *rand.Rand over it holds nothing else a draw depends on — so
//     everything random about a resident run can be checkpointed without
//     replaying a single draw.
package des

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Stream is one random stream: math/rand/v2's PCG generator (its two state
// words, and its MarshalBinary / UnmarshalBinary, promoted) behind
// math/rand's Source64, so *rand.Rand, rand.Zipf and every signature that
// takes them work over it. The zero value is a valid, fixed stream; Seed or
// UnmarshalBinary position it.
type Stream struct{ randv2.PCG }

// Seed implements rand.Source. Both PCG words derive from seed — the second
// through the odd golden-ratio multiplier, a bijection — so two seeds never
// share the generator's low word.
func (s *Stream) Seed(seed int64) { s.PCG.Seed(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15) }

// Int63 implements rand.Source.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

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
	s := new(Stream)
	s.Seed(int64(h))
	return rand.New(s)
}
