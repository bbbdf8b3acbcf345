package controller

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sumsToOne(g []float64) bool {
	s := 0.0
	for _, v := range g {
		s += v
	}
	return math.Abs(s-1) < 1e-9
}

func isQuantized(g []float64, quantum float64) bool {
	for _, v := range g {
		u := v / quantum
		if math.Abs(u-math.Round(u)) > 1e-6 {
			return false
		}
	}
	return true
}

func TestSnapSimplexBasics(t *testing.T) {
	g, err := SnapSimplex([]float64{1, 1, 2}, []bool{true, true, true}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !sumsToOne(g) || !isQuantized(g, 0.25) {
		t.Errorf("snap = %v, want quantized simplex", g)
	}
	// Proportionality: the weight-2 entry gets the largest share.
	if g[2] < g[0] || g[2] < g[1] {
		t.Errorf("snap = %v, want largest share at index 2", g)
	}
}

func TestSnapSimplexMask(t *testing.T) {
	g, err := SnapSimplex([]float64{1, 1, 1}, []bool{true, false, true}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g[1] != 0 {
		t.Errorf("masked entry = %v, want 0", g[1])
	}
	if !sumsToOne(g) {
		t.Errorf("snap = %v, want sum 1", g)
	}
}

func TestSnapSimplexZeroWeightsUniform(t *testing.T) {
	g, err := SnapSimplex([]float64{0, 0}, []bool{true, true}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 0.5 || g[1] != 0.5 {
		t.Errorf("zero weights snap = %v, want uniform", g)
	}
}

// TestEqualSplitIsSnappedEqualWeights: EqualSplit is, bit for bit, what
// SnapSimplex makes of equal weights over every module at QuantumL2.
func TestEqualSplitIsSnappedEqualWeights(t *testing.T) {
	for p := 1; p <= 24; p++ {
		weights, mask := make([]float64, p), make([]bool, p)
		for i := range weights {
			weights[i], mask[i] = 1, true
		}
		want, err := SnapSimplex(weights, mask, QuantumL2)
		if err != nil {
			t.Fatal(err)
		}
		got := EqualSplit(make([]float64, p))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d modules: EqualSplit %v, SnapSimplex %v", p, got, want)
			}
		}
	}
}

func TestSnapSimplexErrors(t *testing.T) {
	if _, err := SnapSimplex(nil, nil, 0.1); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := SnapSimplex([]float64{1}, []bool{true}, 0.3); err == nil {
		t.Error("quantum 0.3 does not divide 1: want error")
	}
	if _, err := SnapSimplex([]float64{1}, []bool{false}, 0.5); err == nil {
		t.Error("empty mask: want error")
	}
	if _, err := SnapSimplex([]float64{1, 2}, []bool{true}, 0.5); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestSnapSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	quanta := []float64{0.05, 0.1, 0.2, 0.25, 0.5}
	f := func(n uint8, qSeed uint8) bool {
		size := int(n%6) + 1
		weights := make([]float64, size)
		mask := make([]bool, size)
		anyOn := false
		for i := range weights {
			weights[i] = rng.Float64() * 10
			mask[i] = rng.Intn(2) == 0
			anyOn = anyOn || mask[i]
		}
		if !anyOn {
			mask[0] = true
		}
		quantum := quanta[int(qSeed)%len(quanta)]
		g, err := SnapSimplex(weights, mask, quantum)
		if err != nil {
			return false
		}
		if !sumsToOne(g) || !isQuantized(g, quantum) {
			return false
		}
		for i := range g {
			if !mask[i] && g[i] != 0 {
				return false
			}
			if g[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateSimplexMatchesCount(t *testing.T) {
	for _, tc := range []struct {
		k       int
		quantum float64
	}{
		{2, 0.5}, {3, 0.25}, {4, 0.1}, {1, 0.1},
	} {
		mask := make([]bool, tc.k)
		for i := range mask {
			mask[i] = true
		}
		got := EnumerateSimplex(tc.k, mask, tc.quantum)
		want := CountSimplex(tc.k, tc.quantum)
		if len(got) != want {
			t.Errorf("k=%d q=%v: enumerated %d, CountSimplex %d", tc.k, tc.quantum, len(got), want)
		}
		for _, g := range got {
			if !sumsToOne(g) || !isQuantized(g, tc.quantum) {
				t.Errorf("invalid vector %v", g)
			}
		}
	}
}

func TestEnumerateSimplexWithMask(t *testing.T) {
	mask := []bool{true, false, true}
	got := EnumerateSimplex(3, mask, 0.5)
	// Compositions of 2 units into 2 slots: 3 vectors.
	if len(got) != 3 {
		t.Fatalf("got %d vectors, want 3", len(got))
	}
	for _, g := range got {
		if g[1] != 0 {
			t.Errorf("masked slot has mass: %v", g)
		}
	}
}

func TestCountSimplexKnownValues(t *testing.T) {
	// 10 units into 4 slots: C(13,3) = 286.
	if got := CountSimplex(4, 0.1); got != 286 {
		t.Errorf("CountSimplex(4, 0.1) = %d, want 286", got)
	}
	// 20 units into 4 slots: C(23,3) = 1771.
	if got := CountSimplex(4, 0.05); got != 1771 {
		t.Errorf("CountSimplex(4, 0.05) = %d, want 1771", got)
	}
	if got := CountSimplex(0, 0.1); got != 0 {
		t.Errorf("CountSimplex(0) = %d, want 0", got)
	}
	if got := CountSimplex(1, 0.1); got != 1 {
		t.Errorf("CountSimplex(1) = %d, want 1", got)
	}
}
