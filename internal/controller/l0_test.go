package controller

import (
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/power"
)

// ctrlSpec returns a computer with four operating points
// (φ = 0.25, 0.5, 0.75, 1.0) and nominal parameters.
func ctrlSpec(name string) cluster.ComputerSpec {
	return cluster.ComputerSpec{
		Name:             name,
		FrequenciesHz:    []float64{0.5e9, 1e9, 1.5e9, 2e9},
		SpeedFactor:      1,
		Power:            power.DefaultModel(),
		BootDelaySeconds: 120,
	}
}

func newTestL0(t *testing.T) *L0 {
	t.Helper()
	cfg := DefaultL0Config()
	l0, err := NewL0(cfg, ctrlSpec("c"))
	if err != nil {
		t.Fatal(err)
	}
	return l0
}

func TestL0ConfigValidation(t *testing.T) {
	base := DefaultL0Config()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	mutations := []func(*L0Config){
		func(c *L0Config) { c.Horizon = 0 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := NewL0(cfg, ctrlSpec("c")); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
	bad := ctrlSpec("c")
	bad.FrequenciesHz = nil
	if _, err := NewL0(base, bad); err == nil {
		t.Error("bad spec: want error")
	}
}

func TestL0LowLoadPicksLowFrequency(t *testing.T) {
	l0 := newTestL0(t)
	// λ = 2 req/s, c = 17.5 ms → utilization at φ=0.25 is 0.14: the
	// lowest frequency meets r* easily, and power cost favours it.
	dec, err := l0.Decide(new(Scratch), 0, []float64{2}, 0, 0.0175)
	if err != nil {
		t.Fatal(err)
	}
	if dec.FreqIdx != 0 {
		t.Errorf("freq index = %d, want 0 (lowest)", dec.FreqIdx)
	}
}

func TestL0HighLoadPicksHighFrequency(t *testing.T) {
	l0 := newTestL0(t)
	// λ = 55 req/s, c = 17.5 ms → needs φ ≈ 0.96: only φ=1 is stable.
	dec, err := l0.Decide(new(Scratch), 0, []float64{55}, 0, 0.0175)
	if err != nil {
		t.Fatal(err)
	}
	if dec.FreqIdx != 3 {
		t.Errorf("freq index = %d, want 3 (max)", dec.FreqIdx)
	}
}

func TestL0BacklogForcesSpeedUp(t *testing.T) {
	l0 := newTestL0(t)
	// A backlog deep enough that the lowest frequency cannot clear it
	// within the horizon (capacity at φ=0.25 is ≈430 requests/period)
	// forces a speed-up even with negligible new arrivals.
	backlog, err := l0.Decide(new(Scratch), 3000, []float64{1}, 0, 0.0175)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := l0.Decide(new(Scratch), 0, []float64{1}, 0, 0.0175)
	if err != nil {
		t.Fatal(err)
	}
	if backlog.FreqIdx <= empty.FreqIdx {
		t.Errorf("backlog freq %d not above empty-queue freq %d", backlog.FreqIdx, empty.FreqIdx)
	}
	if backlog.FreqIdx != 3 {
		t.Errorf("deep backlog freq = %d, want max (3)", backlog.FreqIdx)
	}
}

func TestL0HorizonScalesExploration(t *testing.T) {
	// Horizon 1 explores |U| states, horizon 3 explores |U|+|U|²+|U|³;
	// on clear-cut loads both pick the same first action.
	short := DefaultL0Config()
	short.Horizon = 1
	l0Short, err := NewL0(short, ctrlSpec("c"))
	if err != nil {
		t.Fatal(err)
	}
	l0Long := newTestL0(t)
	eShort, eLong := 0, 0
	for _, lam := range []float64{2, 55} {
		a, err := l0Short.Decide(new(Scratch), 0, []float64{lam}, 0, 0.0175)
		if err != nil {
			t.Fatal(err)
		}
		b, err := l0Long.Decide(new(Scratch), 0, []float64{lam}, 0, 0.0175)
		if err != nil {
			t.Fatal(err)
		}
		if a.FreqIdx != b.FreqIdx {
			t.Errorf("λ=%v: horizon-1 picked %d, horizon-3 picked %d", lam, a.FreqIdx, b.FreqIdx)
		}
		eShort, eLong = eShort+a.Explored, eLong+b.Explored
	}
	if eShort != 2*4 {
		t.Errorf("horizon-1 explored %d, want 8", eShort)
	}
	// Branch-and-bound pruning keeps the horizon-3 count strictly below
	// the naive Σ|U|^q = 84 per decision while still above horizon 1.
	if eLong <= eShort || eLong > 2*84 {
		t.Errorf("horizon-3 explored %d, want in (%d, %d]", eLong, eShort, 2*84)
	}
}

func TestL0ShortForecastPadded(t *testing.T) {
	l0 := newTestL0(t)
	// A single-element forecast works with horizon 3.
	if _, err := l0.Decide(new(Scratch), 0, []float64{10}, 0, 0.0175); err != nil {
		t.Errorf("short forecast: %v", err)
	}
}

func TestL0InputValidation(t *testing.T) {
	l0 := newTestL0(t)
	if _, err := l0.Decide(new(Scratch), 0, nil, 0, 0.0175); err == nil {
		t.Error("empty forecast: want error")
	}
	if _, err := l0.Decide(new(Scratch), 0, []float64{1}, 0, 0); err == nil {
		t.Error("zero c: want error")
	}
	// Negative forecasts are clamped, not an error.
	if _, err := l0.Decide(new(Scratch), 0, []float64{-5}, 0, 0.0175); err != nil {
		t.Errorf("negative forecast: %v", err)
	}
}

func TestL0OverheadMetering(t *testing.T) {
	l0 := newTestL0(t)
	dec, err := l0.Decide(new(Scratch), 0, []float64{10}, 0, 0.0175)
	if err != nil {
		t.Fatal(err)
	}
	explored := dec.Explored
	// |U| = 4, N = 3: the naive tree holds 4 + 16 + 64 = 84 states; the
	// branch-and-bound search must visit at least the root fan-out and
	// at most the naive count, and stay deterministic across decisions.
	if explored < 4 || explored > 84 {
		t.Errorf("explored = %d, want within [4, 84]", explored)
	}
	again, err := l0.Decide(new(Scratch), 0, []float64{10}, 0, 0.0175)
	if err != nil {
		t.Fatal(err)
	}
	if again.Explored != explored {
		t.Errorf("explored by a second identical decision = %d, want %d", again.Explored, explored)
	}
}
