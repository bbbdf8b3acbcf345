package controller

import (
	"math"
	"math/rand"
	"testing"
)

// TestL1MetamorphicAvailabilityAndFloor attacks the L1 decision with random
// availability masks, queues and loads over the package's learned maps and
// checks what must hold whatever the inputs: an unavailable computer is
// off and unloaded, γ is zero off α's support and sums to 1 on it, at least
// MinOn computers stay on (as many as availability allows), and from
// wherever the random walk left the controller, repeated zero forecast
// load over empty queues brings the on-count down to MinOn within m
// decisions — and never below it.
func TestL1MetamorphicAvailabilityAndFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(20061))
	for trial := 0; trial < 80; trial++ {
		m := 2 + rng.Intn(4)
		cfg := DefaultL1Config()
		cfg.MinOn = 1 + rng.Intn(2)
		l1, err := NewL1(cfg, testModuleGMaps(t, m))
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, dec L1Decision, avail []bool) int {
			t.Helper()
			sum, on, usable := 0.0, 0, 0
			for j := range dec.Alpha {
				if avail[j] {
					usable++
				} else if dec.Alpha[j] || dec.Gamma[j] != 0 {
					t.Fatalf("trial %d %s: unavailable computer %d got α=%v γ=%v", trial, label, j, dec.Alpha[j], dec.Gamma[j])
				}
				if dec.Alpha[j] {
					on++
				} else if dec.Gamma[j] != 0 {
					t.Fatalf("trial %d %s: γ[%d] = %v off α's support", trial, label, j, dec.Gamma[j])
				}
				if dec.Gamma[j] < 0 {
					t.Fatalf("trial %d %s: γ[%d] = %v < 0", trial, label, j, dec.Gamma[j])
				}
				sum += dec.Gamma[j]
			}
			if on > 0 && math.Abs(sum-1) > 1e-9 {
				t.Fatalf("trial %d %s: Σγ = %v on α %v, want 1", trial, label, sum, dec.Alpha)
			}
			if floor := min(cfg.MinOn, usable); on < floor {
				t.Fatalf("trial %d %s: %d on, floor %d (α %v, available %v)", trial, label, on, floor, dec.Alpha, avail)
			}
			return on
		}

		// Random walk: masks (all-failed included), queues and loads.
		for step := 0; step < 5; step++ {
			obs := L1Observation{
				QueueLens: make([]float64, m),
				LambdaHat: 220 * rng.Float64(),
				Delta:     30 * rng.Float64() * float64(rng.Intn(2)),
				CHat:      0.014 + 0.008*rng.Float64(),
				Available: make([]bool, m),
			}
			for j := range obs.QueueLens {
				obs.QueueLens[j] = math.Floor(180 * rng.Float64() * float64(rng.Intn(2)))
				obs.Available[j] = rng.Intn(4) > 0
			}
			dec, err := l1.Decide(obs)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			check("walk", dec, obs.Available)
		}

		// Zero load, empty queues, everything available.
		idle := L1Observation{QueueLens: make([]float64, m), CHat: 0.018, Available: make([]bool, m)}
		for j := range idle.Available {
			idle.Available[j] = true
		}
		on := m
		for d := 0; d < m; d++ {
			dec, err := l1.Decide(idle)
			if err != nil {
				t.Fatalf("trial %d idle %d: %v", trial, d, err)
			}
			on = check("idle", dec, idle.Available)
		}
		if on != cfg.MinOn {
			t.Fatalf("trial %d: %d of %d on after %d idle decisions, want MinOn %d", trial, on, m, m, cfg.MinOn)
		}
	}
}
