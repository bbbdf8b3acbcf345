package controller

import (
	"math"
	"testing"

	"hierctl/internal/approx"
)

// funcJTilde adapts a closure to the JTilde interface for tests.
type funcJTilde func(q, lambda, c float64) float64

func (f funcJTilde) Predict(q, lambda, c float64) (float64, error) {
	return f(q, lambda, c), nil
}

// convexLoadCost is a well-behaved module cost: quadratic in load with a
// module-specific capacity scale.
func convexLoadCost(scale float64) funcJTilde {
	return func(q, lambda, c float64) float64 {
		return (lambda/scale)*(lambda/scale) + q*0.01
	}
}

func TestL2ConfigValidation(t *testing.T) {
	base := DefaultL2Config()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	mutations := []func(*L2Config){
		func(c *L2Config) { c.PeriodSeconds = 0 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestNewL2Validation(t *testing.T) {
	if _, err := NewL2(DefaultL2Config(), nil); err == nil {
		t.Error("no models: want error")
	}
	if _, err := NewL2(DefaultL2Config(), []JTilde{nil}); err == nil {
		t.Error("nil model: want error")
	}
}

func TestL2BalancesIdenticalModules(t *testing.T) {
	models := []JTilde{
		convexLoadCost(100), convexLoadCost(100),
		convexLoadCost(100), convexLoadCost(100),
	}
	l2, err := NewL2(DefaultL2Config(), models)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l2.Decide(L2Observation{
		QAvg:      []float64{0, 0, 0, 0},
		LambdaHat: 200,
		CHat:      []float64{0.018, 0.018, 0.018, 0.018},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Convex symmetric cost: optimum is uniform at 0.25 each (hits the
	// 0.1 quantization as 0.2/0.3 splits at worst).
	for i, g := range dec.Gamma {
		if math.Abs(g-0.25) > 0.051 {
			t.Errorf("γ[%d] = %v, want ≈0.25", i, g)
		}
	}
	sum := 0.0
	for _, g := range dec.Gamma {
		sum += g
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σγ = %v, want 1", sum)
	}
}

func TestL2ShiftsLoadToCheaperModule(t *testing.T) {
	// Module 0 is 4× the capacity of module 1.
	models := []JTilde{convexLoadCost(200), convexLoadCost(50)}
	l2, err := NewL2(DefaultL2Config(), models)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l2.Decide(L2Observation{
		QAvg:      []float64{0, 0},
		LambdaHat: 100,
		CHat:      []float64{0.018, 0.018},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gamma[0] <= dec.Gamma[1] {
		t.Errorf("γ = %v, want most load on the big module", dec.Gamma)
	}
}

func TestL2UnavailableModuleGetsZero(t *testing.T) {
	models := []JTilde{convexLoadCost(100), convexLoadCost(100), convexLoadCost(100)}
	l2, err := NewL2(DefaultL2Config(), models)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l2.Decide(L2Observation{
		QAvg:      []float64{0, 0, 0},
		LambdaHat: 100,
		CHat:      []float64{0.018, 0.018, 0.018},
		Available: []bool{true, false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gamma[1] != 0 {
		t.Errorf("failed module received γ = %v", dec.Gamma[1])
	}
}

func TestL2NoAvailableModules(t *testing.T) {
	l2, err := NewL2(DefaultL2Config(), []JTilde{convexLoadCost(100)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = l2.Decide(L2Observation{
		QAvg:      []float64{0},
		LambdaHat: 1,
		CHat:      []float64{0.018},
		Available: []bool{false},
	})
	if err == nil {
		t.Error("no available modules: want error")
	}
}

func TestL2ObservationValidation(t *testing.T) {
	l2, err := NewL2(DefaultL2Config(), []JTilde{convexLoadCost(100), convexLoadCost(100)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Decide(L2Observation{QAvg: []float64{0}, LambdaHat: 1, CHat: []float64{0.018, 0.018}}); err == nil {
		t.Error("QAvg size mismatch: want error")
	}
	if _, err := l2.Decide(L2Observation{QAvg: []float64{0, 0}, LambdaHat: 1, CHat: []float64{0.018, 0.018}, Available: []bool{true}}); err == nil {
		t.Error("availability size mismatch: want error")
	}
	if _, err := l2.Decide(L2Observation{QAvg: []float64{0, 0}, LambdaHat: 1, CHat: []float64{0.018, 0.018}, Split: []float64{1}}); err == nil {
		t.Error("split size mismatch: want error")
	}
}

func TestL2UncertaintySamplesIncreaseExploration(t *testing.T) {
	models := []JTilde{convexLoadCost(100), convexLoadCost(100)}
	l2, err := NewL2(DefaultL2Config(), models)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := l2.Decide(L2Observation{
		QAvg: []float64{0, 0}, LambdaHat: 50, Delta: 0,
		CHat: []float64{0.018, 0.018},
	})
	if err != nil {
		t.Fatal(err)
	}
	banded, err := l2.Decide(L2Observation{
		QAvg: []float64{0, 0}, LambdaHat: 50, Delta: 20,
		CHat: []float64{0.018, 0.018},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Banding prices every term under three samples instead of one; this
	// asks only that it adds work and at most triples it (the exact 3× is
	// TestL2UncertaintySamplesExactWithoutPruning's).
	if banded.Explored <= nominal.Explored || banded.Explored > 3*nominal.Explored {
		t.Errorf("banded explored %d, want in (%d, %d]", banded.Explored, nominal.Explored, 3*nominal.Explored)
	}
}

// TestL2UncertaintySamplesExactWithoutPruning pins the unpruned
// accounting: every term is priced under all three band samples, so
// exploration is exactly 3× the nominal run.
//
//hpm:pin search
func TestL2UncertaintySamplesExactWithoutPruning(t *testing.T) {
	cfg := DefaultL2Config()
	models := []JTilde{convexLoadCost(100), convexLoadCost(100)}
	l2, err := NewL2(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := l2.Decide(L2Observation{
		QAvg: []float64{0, 0}, LambdaHat: 50, Delta: 0,
		CHat: []float64{0.018, 0.018},
	})
	if err != nil {
		t.Fatal(err)
	}
	banded, err := l2.Decide(L2Observation{
		QAvg: []float64{0, 0}, LambdaHat: 50, Delta: 20,
		CHat: []float64{0.018, 0.018},
	})
	if err != nil {
		t.Fatal(err)
	}
	if banded.Explored != 3*nominal.Explored {
		t.Errorf("banded explored %d, want 3× nominal %d", banded.Explored, nominal.Explored)
	}
}

func TestTreeJTilde(t *testing.T) {
	samples := []approx.Sample{
		{X: []float64{0, 0, 0.018}, Y: 1},
		{X: []float64{0, 100, 0.018}, Y: 50},
		{X: []float64{10, 0, 0.018}, Y: 2},
		{X: []float64{10, 100, 0.018}, Y: 60},
	}
	tree, err := approx.FitTree(samples, approx.TreeConfig{MaxDepth: 4, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	jt, err := NewTreeJTilde(tree)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := jt.Predict(0, 0, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := jt.Predict(0, 100, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Errorf("tree J̃: high-load %v not above low-load %v", hi, lo)
	}
	if _, err := NewTreeJTilde(nil); err == nil {
		t.Error("nil tree: want error")
	}
}

func TestSimulateModulePeriodCostMonotoneInLoad(t *testing.T) {
	sim, err := newModuleSim(fastL0Config(), DefaultL1Config(), testModuleGMaps(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	lo, _, err := sim(0, 5, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	hi, _, err := sim(50, 150, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Errorf("overloaded module cost %v not above idle %v", hi, lo)
	}
	if lo < 0 {
		t.Errorf("cost %v negative", lo)
	}
}

func TestLearnModuleTree(t *testing.T) {
	gmaps := testModuleGMaps(t, 2)
	cfg := ModuleSimConfig{
		QLevels:      []float64{0, 50},
		LambdaLevels: []float64{0, 40, 80, 120},
		CLevels:      []float64{0.018},
		Tree:         approx.TreeConfig{MaxDepth: 6, MinLeaf: 1},
	}
	jt, err := LearnModuleTree(fastL0Config(), DefaultL1Config(), gmaps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := jt.Predict(0, 0, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := jt.Predict(50, 120, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Errorf("learned J̃: overload %v not above idle %v", hi, lo)
	}
	bad := cfg
	bad.QLevels = nil
	if _, err := LearnModuleTree(fastL0Config(), DefaultL1Config(), gmaps, bad); err == nil {
		t.Error("empty grid: want error")
	}
}
