package controller

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
		var on []bool
		for step := 0; step < 5; step++ {
			obs := L1Observation{
				QueueLens: make([]float64, m),
				On:        on,
				LambdaHat: 220 * rng.Float64(),
				Delta:     30 * rng.Float64() * float64(rng.Intn(2)),
				CHat:      0.014 + 0.008*rng.Float64(),
				Available: make([]bool, m),
			}
			for j := range obs.QueueLens {
				obs.QueueLens[j] = math.Floor(180 * rng.Float64() * float64(rng.Intn(2)))
				obs.Available[j] = rng.Intn(4) > 0
			}
			dec, err := l1.Decide(new(Scratch), obs)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			check("walk", dec, obs.Available)
			on = dec.Alpha
		}

		// Zero load, empty queues, everything available.
		idle := L1Observation{QueueLens: make([]float64, m), On: on, CHat: 0.018, Available: make([]bool, m)}
		for j := range idle.Available {
			idle.Available[j] = true
		}
		n := m
		for d := 0; d < m; d++ {
			dec, err := l1.Decide(new(Scratch), idle)
			if err != nil {
				t.Fatalf("trial %d idle %d: %v", trial, d, err)
			}
			n = check("idle", dec, idle.Available)
			idle.On = dec.Alpha
		}
		if n != cfg.MinOn {
			t.Fatalf("trial %d: %d of %d on after %d idle decisions, want MinOn %d", trial, n, m, m, cfg.MinOn)
		}
	}
}

// l1MeanCost prices a decision the way Decide does (see l1Oracle).
func l1MeanCost(t *testing.T, cfg L1Config, gmaps []*GMap, dec L1Decision, obs L1Observation) float64 {
	t.Helper()
	units := make([]int, len(dec.Gamma))
	for j, g := range dec.Gamma {
		units[j] = int(math.Round(g / cfg.Quantum))
	}
	cost, _ := newL1Oracle(cfg, gmaps, obs.On, obs).price(t, dec.Alpha, units)
	return cost
}

// TestL1MetamorphicPermutation: a module of identical computers has no
// first computer. Relabel them — queues, availability and the previous
// decision permuted alike — and the decision comes back relabelled: carried
// back through the permutation it is available-only, on α's support, and
// costs what the original decision costs, so it is the same optimum up to
// which of several equal-cost candidates the tie order takes (the
// abstraction map is a grid, so mirror-image candidates tie, and the fold
// sums their terms in another order, so their costs agree to rounding).
// It runs at the paper's quantum: every split of its 20 units is priced,
// so the candidate set is symmetric.
func TestL1MetamorphicPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(20062))
	cfg := DefaultL1Config()
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(3)
		gmaps := testModuleGMaps(t, m)
		perm := rng.Perm(m) // computer j of the original is perm[j] of the relabelled module
		obs := L1Observation{
			QueueLens: make([]float64, m),
			LambdaHat: 220 * rng.Float64(),
			Delta:     30 * rng.Float64() * float64(rng.Intn(2)),
			CHat:      0.014 + 0.008*rng.Float64(),
			Available: make([]bool, m),
			On:        make([]bool, m),
		}
		alpha := obs.On
		serving := false
		for j := 0; j < m; j++ {
			obs.QueueLens[j] = math.Floor(180 * rng.Float64() * float64(rng.Intn(2)))
			obs.Available[j] = rng.Intn(4) > 0
			alpha[j] = rng.Intn(3) > 0
			serving = serving || alpha[j] && obs.Available[j]
		}
		if !serving {
			// Nothing of the previous decision survives: the controller
			// turns on the first available computers, by index.
			continue
		}
		relabel := L1Observation{
			QueueLens: make([]float64, m), LambdaHat: obs.LambdaHat, Delta: obs.Delta, CHat: obs.CHat,
			Available: make([]bool, m), On: make([]bool, m),
		}
		for j, p := range perm {
			relabel.QueueLens[p], relabel.Available[p], relabel.On[p] = obs.QueueLens[j], obs.Available[j], alpha[j]
		}
		decide := func(obs L1Observation) L1Decision {
			l1, err := NewL1(cfg, gmaps)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := l1.Decide(new(Scratch), obs)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return dec
		}
		dec, decP := decide(obs), decide(relabel)
		back := L1Decision{Alpha: make([]bool, m), Gamma: make([]float64, m)}
		for j, p := range perm {
			back.Alpha[j], back.Gamma[j] = decP.Alpha[p], decP.Gamma[p]
		}
		for j := range back.Alpha {
			if back.Alpha[j] && !obs.Available[j] || !back.Alpha[j] && back.Gamma[j] != 0 {
				t.Fatalf("trial %d: relabelled decision carried back: computer %d available %v got α=%v γ=%v",
					trial, j, obs.Available[j], back.Alpha[j], back.Gamma[j])
			}
		}
		cost := l1MeanCost(t, cfg, gmaps, dec, obs)
		costBack := l1MeanCost(t, cfg, gmaps, back, obs)
		if math.Abs(cost-costBack) > 1e-9*math.Max(1, math.Abs(cost)) {
			t.Fatalf("trial %d (perm %v): decision α %v γ %v costs %v; the relabelled module's, carried back, α %v γ %v costs %v",
				trial, perm, dec.Alpha, dec.Gamma, cost, back.Alpha, back.Gamma, costBack)
		}
	}
}

// TestL1MetamorphicLoadCapacityScaling: requests twice as heavy on computers
// twice as fast are the same module — every place the controller reads a
// processing time it divides by the computer's speed (the fluid model under
// the abstraction map, the stability bound). With maps learned on the processing-time grid scaled alike, and
// a factor of two so no rounding differs, the decision is not merely the
// same α: α, γ and the explored count are identical over a closed-loop walk
// of a heterogeneous module.
func TestL1MetamorphicLoadCapacityScaling(t *testing.T) {
	const scale = 2
	speeds := []float64{1, 1.5, 0.75, 1.25}
	learn := func(k float64) []*GMap {
		grid := coarseGMapConfig()
		grid.CMin, grid.CMax, grid.CStep = k*grid.CMin, k*grid.CMax, k*grid.CStep
		gmaps := make([]*GMap, len(speeds))
		for j, s := range speeds {
			spec := ctrlSpec(fmt.Sprintf("s%d", j))
			spec.SpeedFactor = k * s
			g, err := LearnGMap(fastL0Config(), spec, grid)
			if err != nil {
				t.Fatal(err)
			}
			gmaps[j] = g
		}
		return gmaps
	}
	base, err := NewL1(DefaultL1Config(), learn(1))
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewL1(DefaultL1Config(), learn(scale))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20063))
	m := len(speeds)
	var on, onS []bool
	for step := 0; step < 300; step++ {
		obs := L1Observation{
			QueueLens: make([]float64, m),
			LambdaHat: 300 * rng.Float64(),
			Delta:     30 * rng.Float64() * float64(rng.Intn(2)),
			CHat:      0.014 + 0.008*rng.Float64(),
			Available: make([]bool, m),
		}
		for j := range obs.QueueLens {
			obs.QueueLens[j] = math.Floor(180 * rng.Float64() * float64(rng.Intn(2)))
			obs.Available[j] = rng.Intn(8) > 0
		}
		obs.On = on
		heavier := obs
		heavier.CHat, heavier.On = scale*obs.CHat, onS
		dec, err := base.Decide(new(Scratch), obs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		decS, err := scaled.Decide(new(Scratch), heavier)
		if err != nil {
			t.Fatalf("step %d scaled: %v", step, err)
		}
		if !slices.Equal(dec.Alpha, decS.Alpha) || !slices.Equal(dec.Gamma, decS.Gamma) || dec.Explored != decS.Explored {
			t.Fatalf("step %d: α %v γ %v (%d explored); with demand and speed ×%d: α %v γ %v (%d explored)",
				step, dec.Alpha, dec.Gamma, dec.Explored, scale, decS.Alpha, decS.Gamma, decS.Explored)
		}
		on, onS = dec.Alpha, decS.Alpha
	}
}
