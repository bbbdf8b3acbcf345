package queue

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	valid := Params{Lambda: 10, C: 0.02, Phi: 0.5, T: 30}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid params: %v", err)
	}
	cases := []Params{
		{Lambda: -1, C: 0.02, Phi: 0.5, T: 30},
		{Lambda: 10, C: 0, Phi: 0.5, T: 30},
		{Lambda: 10, C: 0.02, Phi: 0, T: 30},
		{Lambda: 10, C: 0.02, Phi: 1.1, T: 30},
		{Lambda: 10, C: 0.02, Phi: 0.5, T: 0},
		{Lambda: math.NaN(), C: 0.02, Phi: 0.5, T: 30},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error", i, p)
		}
	}
}

func TestStepGrowsWhenOverloaded(t *testing.T) {
	// λ = 100 req/s, capacity = φ/c = 0.5/0.02 = 25 req/s → +75 req/s.
	s, err := Step(State{Q: 10}, Params{Lambda: 100, C: 0.02, Phi: 0.5, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 + 75.0; math.Abs(s.Q-want) > 1e-9 {
		t.Errorf("Q = %v, want %v", s.Q, want)
	}
	if want := (1 + 85.0) * 0.02 / 0.5; math.Abs(s.R-want) > 1e-9 {
		t.Errorf("R = %v, want %v", s.R, want)
	}
}

func TestStepDrainsWhenUnderloaded(t *testing.T) {
	// capacity 50 req/s vs λ = 10 → queue drains 40/s, clamped at 0.
	s, err := Step(State{Q: 20}, Params{Lambda: 10, C: 0.02, Phi: 1, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Q != 0 {
		t.Errorf("Q = %v, want clamp to 0", s.Q)
	}
	if want := 0.02; math.Abs(s.R-want) > 1e-9 {
		t.Errorf("R = %v, want bare processing time %v", s.R, want)
	}
}

func TestStepEquilibrium(t *testing.T) {
	// λ exactly equal to capacity: queue unchanged.
	s, err := Step(State{Q: 5}, Params{Lambda: 25, C: 0.04, Phi: 1, T: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Q-5) > 1e-9 {
		t.Errorf("Q = %v, want 5", s.Q)
	}
}

func TestStepRejectsBadParams(t *testing.T) {
	if _, err := Step(State{}, Params{Lambda: 1, C: 0.02, Phi: 2, T: 1}); err == nil {
		t.Error("phi > 1: want error")
	}
}

func TestQueueNeverNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(steps uint8) bool {
		s := State{}
		for i := 0; i < int(steps%50)+1; i++ {
			p := Params{
				Lambda: rng.Float64() * 100,
				C:      0.01 + rng.Float64()*0.05,
				Phi:    0.1 + rng.Float64()*0.9,
				T:      30,
			}
			next, err := Step(s, p)
			if err != nil || next.Q < 0 || next.R < 0 {
				return false
			}
			s = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHigherFrequencyNeverHurts(t *testing.T) {
	// For the same state/inputs, a higher φ yields shorter or equal
	// response time and lower or equal queue.
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		q0 := rng.Float64() * 50
		lambda := rng.Float64() * 80
		c := 0.01 + rng.Float64()*0.04
		pa := 0.1 + rng.Float64()*0.8
		pb := pa + rng.Float64()*(1-pa)
		sa, errA := Step(State{Q: q0}, Params{Lambda: lambda, C: c, Phi: pa, T: 30})
		sb, errB := Step(State{Q: q0}, Params{Lambda: lambda, C: c, Phi: pb, T: 30})
		if errA != nil || errB != nil {
			return false
		}
		return sb.Q <= sa.Q+1e-9 && sb.R <= sa.R+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
