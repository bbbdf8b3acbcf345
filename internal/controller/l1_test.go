package controller

import (
	"fmt"
	"math"
	"testing"

	"hierctl/internal/cluster"
)

// coarseGMapConfig keeps offline learning fast in tests.
func coarseGMapConfig() GMapConfig {
	return GMapConfig{
		QMax: 200, QStep: 25,
		LambdaMax: 120, LambdaStep: 15,
		CMin: 0.014, CMax: 0.022, CStep: 0.004,
		SubSteps: 2,
	}
}

// fastL0Config shrinks the horizon for test-time learning sweeps.
func fastL0Config() L0Config {
	cfg := DefaultL0Config()
	cfg.Horizon = 2
	return cfg
}

var gmapCache = map[string]*GMap{}

func testGMap(t *testing.T, spec cluster.ComputerSpec) *GMap {
	t.Helper()
	key := spec.Name
	if g, ok := gmapCache[key]; ok {
		return g
	}
	g, err := LearnGMap(fastL0Config(), spec, coarseGMapConfig())
	if err != nil {
		t.Fatal(err)
	}
	gmapCache[key] = g
	return g
}

func testModuleGMaps(t *testing.T, m int) []*GMap {
	t.Helper()
	gmaps := make([]*GMap, m)
	for j := 0; j < m; j++ {
		gmaps[j] = testGMap(t, ctrlSpec(fmt.Sprintf("c%d", j)))
	}
	return gmaps
}

func newTestL1(t *testing.T, m int) *L1 {
	t.Helper()
	l1, err := NewL1(DefaultL1Config(), testModuleGMaps(t, m))
	if err != nil {
		t.Fatal(err)
	}
	return l1
}

func TestL1ConfigValidation(t *testing.T) {
	base := DefaultL1Config()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	mutations := []func(*L1Config){
		func(c *L1Config) { c.PeriodSeconds = 0 },
		func(c *L1Config) { c.Quantum = 0 },
		func(c *L1Config) { c.Quantum = 0.3 },
		func(c *L1Config) { c.SwitchWeight = -1 },
		func(c *L1Config) { c.Quantum = 0.005 },
		func(c *L1Config) { c.MinOn = 0 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestNewL1Validation(t *testing.T) {
	if _, err := NewL1(DefaultL1Config(), nil); err == nil {
		t.Error("no gmaps: want error")
	}
	if _, err := NewL1(DefaultL1Config(), []*GMap{nil}); err == nil {
		t.Error("nil gmap: want error")
	}
	cfg := DefaultL1Config()
	cfg.MinOn = 5
	if _, err := NewL1(cfg, testModuleGMaps(t, 2)); err == nil {
		t.Error("min-on > module size: want error")
	}
	// The on/off dedup key is one uint64: 64 computers build, 65 do not.
	wide := make([]*GMap, 65)
	for j := range wide {
		wide[j] = testGMap(t, ctrlSpec("c0"))
	}
	if _, err := NewL1(DefaultL1Config(), wide[:64]); err != nil {
		t.Errorf("64-computer module: %v", err)
	}
	if _, err := NewL1(DefaultL1Config(), wide); err == nil {
		t.Error("65-computer module: want error")
	}
}

func TestGMapLearnAndEvaluate(t *testing.T) {
	g := testGMap(t, ctrlSpec("solo"))
	if g.Cells() == 0 {
		t.Fatal("no cells learned")
	}
	// Idle computer: cost is just power; overloaded computer: slack blows
	// the cost up.
	idle, _, _, _, err := g.Evaluate(0, 0, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	overloaded, _, _, _, err := g.Evaluate(200, 120, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	if overloaded <= idle {
		t.Errorf("overloaded cost %v not above idle cost %v", overloaded, idle)
	}
	// Clamping: queries beyond the grid saturate at the boundary cell.
	clamped, _, _, _, err := g.Evaluate(1e6, 1e6, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != overloaded {
		t.Errorf("out-of-grid query %v != boundary cell %v", clamped, overloaded)
	}
}

func TestGMapConfigValidation(t *testing.T) {
	base := coarseGMapConfig()
	mutations := []func(*GMapConfig){
		func(c *GMapConfig) { c.QStep = 0 },
		func(c *GMapConfig) { c.LambdaMax = 0 },
		func(c *GMapConfig) { c.CMin = 0 },
		func(c *GMapConfig) { c.CMax = c.CMin / 2 },
		func(c *GMapConfig) { c.SubSteps = 0 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := LearnGMap(fastL0Config(), ctrlSpec("x"), cfg); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func validateDecision(t *testing.T, dec L1Decision, quantum float64) {
	t.Helper()
	sum := 0.0
	for j := range dec.Gamma {
		if !dec.Alpha[j] && dec.Gamma[j] != 0 {
			t.Errorf("γ[%d] = %v on an off computer", j, dec.Gamma[j])
		}
		if dec.Gamma[j] < 0 {
			t.Errorf("γ[%d] = %v negative", j, dec.Gamma[j])
		}
		sum += dec.Gamma[j]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σγ = %v, want 1", sum)
	}
	if !isQuantized(dec.Gamma, quantum) {
		t.Errorf("γ = %v not quantized at %v", dec.Gamma, quantum)
	}
}

func TestL1ScalesDownAtLowLoad(t *testing.T) {
	l1 := newTestL1(t, 4)
	obs := L1Observation{
		QueueLens: []float64{0, 0, 0, 0},
		LambdaHat: 2, // trivially served by one computer
		CHat:      0.018,
	}
	on := 4
	for i := 0; i < 4; i++ {
		dec, err := l1.Decide(obs)
		if err != nil {
			t.Fatal(err)
		}
		validateDecision(t, dec, l1.cfg.Quantum)
		on = countOn(dec.Alpha)
		obs.On = dec.Alpha
	}
	if on != 1 {
		t.Errorf("computers on after repeated low load = %d, want 1", on)
	}
}

func TestL1ScalesUpUnderHighLoad(t *testing.T) {
	l1 := newTestL1(t, 4)
	obs := L1Observation{
		QueueLens: []float64{150, 0, 0, 0},
		On:        []bool{true, false, false, false}, // a single computer on
		LambdaHat: 150,                               // far beyond one computer's ~55 req/s capacity
		CHat:      0.018,
	}
	dec, err := l1.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	validateDecision(t, dec, l1.cfg.Quantum)
	if countOn(dec.Alpha) <= 1 {
		t.Errorf("computers on under overload = %d, want > 1", countOn(dec.Alpha))
	}
}

func TestL1SwitchPenaltyDiscouragesPowerOn(t *testing.T) {
	// At a load marginally above one computer's comfort, a huge W keeps
	// the second computer off while W = 0 brings it on.
	decide := func(w float64) int {
		cfg := DefaultL1Config()
		cfg.SwitchWeight = w
		l1, err := NewL1(cfg, testModuleGMaps(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := l1.Decide(L1Observation{
			QueueLens: []float64{10, 0},
			On:        []bool{true, false},
			LambdaHat: 40,
			CHat:      0.018,
		})
		if err != nil {
			t.Fatal(err)
		}
		return countOn(dec.Alpha)
	}
	withoutPenalty := decide(0)
	withPenalty := decide(500)
	if withoutPenalty < 2 {
		t.Skipf("load not high enough to trigger power-on even free (on=%d)", withoutPenalty)
	}
	if withPenalty != 1 {
		t.Errorf("on with huge W = %d, want 1 (penalty suppresses switch)", withPenalty)
	}
}

func TestL1RespectsAvailability(t *testing.T) {
	l1 := newTestL1(t, 3)
	obs := L1Observation{
		QueueLens: []float64{50, 50, 50},
		LambdaHat: 200,
		CHat:      0.018,
		Available: []bool{true, false, true}, // computer 1 failed
	}
	dec, err := l1.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Alpha[1] {
		t.Error("failed computer was powered on")
	}
	if dec.Gamma[1] != 0 {
		t.Error("failed computer received load")
	}
	validateDecision(t, dec, l1.cfg.Quantum)
}

func TestL1MinOnEnforced(t *testing.T) {
	cfg := DefaultL1Config()
	cfg.MinOn = 2
	l1, err := NewL1(cfg, testModuleGMaps(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	obs := L1Observation{
		QueueLens: []float64{0, 0, 0, 0},
		LambdaHat: 0,
		CHat:      0.018,
	}
	for i := 0; i < 5; i++ {
		dec, err := l1.Decide(obs)
		if err != nil {
			t.Fatal(err)
		}
		if countOn(dec.Alpha) < 2 {
			t.Fatalf("on = %d, want >= MinOn 2", countOn(dec.Alpha))
		}
		obs.On = dec.Alpha
	}
}

func TestL1ObservationValidation(t *testing.T) {
	l1 := newTestL1(t, 2)
	if _, err := l1.Decide(L1Observation{QueueLens: []float64{1}, LambdaHat: 1, CHat: 0.018}); err == nil {
		t.Error("queue size mismatch: want error")
	}
	if _, err := l1.Decide(L1Observation{QueueLens: []float64{1, 1}, LambdaHat: 1, CHat: 0}); err == nil {
		t.Error("zero c: want error")
	}
	if _, err := l1.Decide(L1Observation{QueueLens: []float64{1, 1}, LambdaHat: 1, CHat: 0.018, Available: []bool{true}}); err == nil {
		t.Error("availability size mismatch: want error")
	}
	if _, err := l1.Decide(L1Observation{QueueLens: []float64{1, 1}, LambdaHat: 1, CHat: 0.018, On: []bool{true}}); err == nil {
		t.Error("on/off size mismatch: want error")
	}
}

func TestL1OverheadMetering(t *testing.T) {
	l1 := newTestL1(t, 4)
	dec, err := l1.Decide(L1Observation{
		QueueLens: []float64{5, 5, 5, 5},
		LambdaHat: 60,
		Delta:     10,
		CHat:      0.018,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Explored == 0 {
		t.Error("decision explored no states")
	}
	explored, decisions, compute := l1.Overhead()
	if explored != dec.Explored || decisions != 1 || compute <= 0 {
		t.Errorf("overhead = (%d, %d, %v), want (%d, 1, >0)", explored, decisions, compute, dec.Explored)
	}
	// Explored counts map probes, each cell at most once per computer.
	if bound := exploredBoundL1(l1.gmaps); dec.Explored > bound {
		t.Errorf("explored = %d, above the closed-form bound %d", dec.Explored, bound)
	}
}

func TestL1UncertaintyBandUsesThreeSamples(t *testing.T) {
	l1 := newTestL1(t, 2)
	base, err := l1.Decide(L1Observation{
		QueueLens: []float64{0, 0}, LambdaHat: 30, Delta: 0, CHat: 0.018,
	})
	if err != nil {
		t.Fatal(err)
	}
	banded, err := l1.Decide(L1Observation{
		QueueLens: []float64{0, 0}, On: base.Alpha, LambdaHat: 30, Delta: 10, CHat: 0.018,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same candidate set, 3× the evaluations.
	if banded.Explored <= base.Explored {
		t.Errorf("banded explored %d not above nominal %d", banded.Explored, base.Explored)
	}
}
