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
//     replaying a single draw. And it is random-access: the state walk is
//     s·mul + inc mod 2^128 with constants no seed touches, so the state n
//     steps on is one affine map of s whose coefficients the whole process
//     shares (State.Jump) — draw i of a stream can be computed from its
//     origin instead of kept, which is how a workload.Store answers for
//     10,000 demands without a table of them.
package des

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"

	"hierctl/internal/ckpt"
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

// State reads the stream's position as plain data.
func (s *Stream) State() State {
	b, _ := s.MarshalBinary() // "pcg:" + two big-endian words; never fails
	return State{Hi: binary.BigEndian.Uint64(b[4:]), Lo: binary.BigEndian.Uint64(b[12:])}
}

// SetState positions the stream at st: the draws after it are the draws
// that follow st.
func (s *Stream) SetState(st State) { s.PCG.Seed(st.Hi, st.Lo) }

// Checkpoint appends the stream's position: its two state words.
func (s *Stream) Checkpoint(w *ckpt.Writer) {
	st := s.State()
	w.Word(st.Hi)
	w.Word(st.Lo)
}

// RestoreCheckpoint positions the stream where Checkpoint read it: the
// draws after it are the draws that followed there.
func (s *Stream) RestoreCheckpoint(r *ckpt.Reader) {
	var b [20]byte
	copy(b[:], "pcg:")
	binary.BigEndian.PutUint64(b[4:], r.Word())
	binary.BigEndian.PutUint64(b[12:], r.Word())
	_ = s.UnmarshalBinary(b[:]) // the layout MarshalBinary writes; never fails
}

// State is a Stream's position: the two words of the stdlib PCG, on which
// the generator's walk and output function are restated here so a draw can
// be computed at a distance. TestStateWalksLikePCG pins both against
// math/rand/v2 itself.
type State struct{ Hi, Lo uint64 }

// affine is the map s -> mul·s + add mod 2^128: any number of PCG steps.
type affine struct{ mulHi, mulLo, addHi, addLo uint64 }

// step is one PCG step, math/rand/v2's constants.
var step = affine{
	mulHi: 2549297995355413924, mulLo: 4865540595714422341,
	addHi: 6364136223846793005, addLo: 1442695040888963407,
}

func (a *affine) apply(s State) State {
	hi, lo := bits.Mul64(s.Lo, a.mulLo)
	hi += s.Hi*a.mulLo + s.Lo*a.mulHi
	lo, c := bits.Add64(lo, a.addLo, 0)
	hi, _ = bits.Add64(hi, a.addHi, c)
	return State{hi, lo}
}

// then composes: a first, b after — b.mul·(a.mul·s + a.add) + b.add.
func (a affine) then(b affine) affine {
	scale := affine{mulHi: b.mulHi, mulLo: b.mulLo} // s -> b.mul·s
	mul := scale.apply(State{a.mulHi, a.mulLo})
	add := b.apply(State{a.addHi, a.addLo})
	return affine{mul.Hi, mul.Lo, add.Hi, add.Lo}
}

// jumps[l][d] is d·256^l steps: one entry per byte of a step count, so any
// distance is at most eight multiply-adds, and a hop of less than 256 — what
// a workload.Store makes from the nearest state it keeps — is one, out of
// the table's first 8 KB. Built once at start-up and never written again;
// every stream of the process reads the same coefficients.
var jumps = func() (t [8][256]affine) {
	unit := step
	for l := range t {
		t[l][0] = affine{mulLo: 1}
		for d := 1; d < 256; d++ {
			t[l][d] = t[l][d-1].then(unit)
		}
		unit = t[l][255].then(unit)
	}
	return t
}()

// Next returns the state one step on.
func (s State) Next() State { return step.apply(s) }

// Jump returns the state n steps on, without walking them: one
// multiply-add per non-zero byte of n.
func (s State) Jump(n uint64) State {
	for l := 0; n != 0; l, n = l+1, n>>8 {
		if d := n & 0xff; d != 0 {
			s = jumps[l][d].apply(s)
		}
	}
	return s
}

// Output returns the value Uint64 returns on arriving at s: PCG's DXSM
// ("double xorshift multiply") of the two words. Draw i of a stream,
// counting from 0, is origin.Jump(i + 1).Output().
func (s State) Output() uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi := s.Hi
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= s.Lo | 1
	return hi
}

// NewStream derives a deterministic random stream for the named component
// from the given master seed. Streams for distinct names are independent;
// the same (seed, name) pair always yields an identical stream.
func NewStream(seed int64, name string) *Stream {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(seed)
	h *= 1099511628211
	s := new(Stream)
	s.Seed(int64(h))
	return s
}

// RNG is NewStream behind the *rand.Rand the simulation's signatures take.
func RNG(seed int64, name string) *rand.Rand { return rand.New(NewStream(seed, name)) }
