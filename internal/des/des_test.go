package des

import "testing"

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
