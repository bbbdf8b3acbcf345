package des

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

func TestRNGDeterministicAndDistinct(t *testing.T) {
	a1 := RNG(42, "computer-0")
	a2 := RNG(42, "computer-0")
	b := RNG(42, "computer-1")
	c := RNG(43, "computer-0")
	sameAsA1 := true
	diffB, diffC := false, false
	for i := 0; i < 32; i++ {
		v1, v2 := a1.Int63(), a2.Int63()
		if v1 != v2 {
			sameAsA1 = false
		}
		if v1 != b.Int63() {
			diffB = true
		}
		if v1 != c.Int63() {
			diffC = true
		}
	}
	if !sameAsA1 {
		t.Error("same (seed,name) produced different streams")
	}
	if !diffB {
		t.Error("different names produced identical streams")
	}
	if !diffC {
		t.Error("different seeds produced identical streams")
	}
}

// TestStreamIsItsState pins the enumerable half of the package invariant: a
// stream is 16 bytes, and marshalling it mid-stream into a fresh Stream
// carries everything the next draws depend on — through every *rand.Rand
// method the simulation uses, rand.Zipf included.
//
//hpm:pin mechanics
func TestStreamIsItsState(t *testing.T) {
	if got := unsafe.Sizeof(Stream{}); got != 16 {
		t.Fatalf("Stream is %d bytes, want 16", got)
	}
	var src Stream
	src.Seed(20060704)
	orig := rand.New(&src)
	for i := 0; i < 777; i++ {
		orig.ExpFloat64()
	}
	state, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var fresh Stream
	if err := fresh.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	resumed := rand.New(&fresh)
	zo, zr := rand.NewZipf(orig, 1.1, 1, 999), rand.NewZipf(resumed, 1.1, 1, 999)
	for i := 0; i < 1000; i++ {
		if a, b := orig.Float64(), resumed.Float64(); a != b {
			t.Fatalf("draw %d: Float64 %v != %v", i, a, b)
		}
		if a, b := orig.ExpFloat64(), resumed.ExpFloat64(); a != b {
			t.Fatalf("draw %d: ExpFloat64 %v != %v", i, a, b)
		}
		if a, b := orig.NormFloat64(), resumed.NormFloat64(); a != b {
			t.Fatalf("draw %d: NormFloat64 %v != %v", i, a, b)
		}
		if a, b := zo.Uint64(), zr.Uint64(); a != b {
			t.Fatalf("draw %d: Zipf %v != %v", i, a, b)
		}
	}
}

// TestStateWalksLikePCG pins the restated walk and output function against
// the generator itself: over 10⁶ draws, State.Next lands on the stream's own
// state and State.Output is the value the stream returned.
func TestStateWalksLikePCG(t *testing.T) {
	s := NewStream(20060704, "store")
	st := s.State()
	for i := 0; i < 1_000_000; i++ {
		st = st.Next()
		if got, want := st.Output(), s.Uint64(); got != want {
			t.Fatalf("draw %d: Output %#x, stream drew %#x", i, got, want)
		}
	}
	if st != s.State() {
		t.Fatalf("after 10⁶ steps: walked to %v, stream at %v", st, s.State())
	}
}

// jumpRef is Jump without the table: square-and-multiply over math/big.
func jumpRef(s State, n uint64) State {
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	word := func(hi, lo uint64) *big.Int {
		v := new(big.Int).SetUint64(hi)
		return v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(lo))
	}
	// v -> m·v + k is 2^bit steps, doubled each round: m² and k·(m + 1).
	m, k := word(step.mulHi, step.mulLo), word(step.addHi, step.addLo)
	v := word(s.Hi, s.Lo)
	for ; n != 0; n >>= 1 {
		if n&1 == 1 {
			v.Mul(v, m).Add(v, k).Mod(v, mod)
		}
		k.Add(k, new(big.Int).Mul(k, m)).Mod(k, mod)
		m.Mul(m, m).Mod(m, mod)
	}
	lo := new(big.Int).And(v, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	return State{Hi: v.Rsh(v, 64).Uint64(), Lo: lo}
}

// FuzzStreamJump pins random access: for any stream and distance, Jump
// lands where the math/big reference does, and — for every distance short
// enough to walk — where the stream itself is after that many draws, so
// the draw that follows is the same one.
//
//hpm:pin fuzz
func FuzzStreamJump(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 20060704} {
		for _, n := range []uint64{0, 1, 255, 256, 9999, 65536, 1 << 31, math.MaxUint64} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint64) {
		s := NewStream(seed, "store")
		origin := s.State()
		got := origin.Jump(n)
		if want := jumpRef(origin, n); got != want {
			t.Fatalf("Jump(%d) from %v = %v, reference %v", n, origin, got, want)
		}
		if n > 1<<20 {
			return
		}
		for i := uint64(0); i < n; i++ {
			s.Uint64()
		}
		if got != s.State() {
			t.Fatalf("Jump(%d) from %v = %v, stream walked to %v", n, origin, got, s.State())
		}
		if out, want := got.Next().Output(), s.Uint64(); out != want {
			t.Fatalf("draw %d: computed %#x, stream drew %#x", n, out, want)
		}
	})
}

// TestJumpTableSharedConcurrently reads the one process-wide table from
// many goroutines at once; under -race it shows the table is never written
// after start-up.
func TestJumpTableSharedConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			origin := NewStream(int64(g), "store").State()
			walked := origin
			for n := uint64(1); n <= 2000; n++ {
				walked = walked.Next()
				if got := origin.Jump(n); got != walked {
					t.Errorf("goroutine %d: Jump(%d) = %v, walked to %v", g, n, got, walked)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
