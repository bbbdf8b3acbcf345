package des

import (
	"math/rand"
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
