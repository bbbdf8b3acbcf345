package controller

// Pins for the L0 search's pruning aids: the completion bound's floors
// never exceed a stage cost the walk computes, and with the floors and the
// constant-path incumbents the search returns the unpruned search's
// decision bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/llc"
	"hierctl/internal/queue"
)

// TestL0MatchesNaiveExhaustive drives the L0 controller's own search —
// its forecast buffers, its model's floors and its incumbents — on the
// four catalogue computers at horizons 1-4, banded and unbanded, from
// idle queues to deep backlogs and loads from idle to three times the
// computer's capacity, and requires the unpruned search's input
// sequence, states and cost bit for bit.
//
//hpm:pin search
func TestL0MatchesNaiveExhaustive(t *testing.T) {
	loads := []float64{0, 0.05, 0.2, 0.45, 0.7, 0.85, 0.95, 1, 1.1, 1.4, 2, 3}
	for kind := 0; kind < 4; kind++ {
		spec, err := cluster.StandardComputer(kind, fmt.Sprintf("C%d", kind+1))
		if err != nil {
			t.Fatal(err)
		}
		for horizon := 1; horizon <= 4; horizon++ {
			cfg := DefaultL0Config()
			cfg.Horizon = horizon
			l0, err := NewL0(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			sc := new(l0Scratch)
			for _, cHat := range []float64{0.0105, 0.0175, 0.026} {
				capacity := spec.SpeedFactor / cHat
				for _, q0 := range []float64{0, 3, 40, 250, 2000} {
					for li, load := range loads {
						// The forecast ramps towards the next load level.
						next := loads[min(li+1, len(loads)-1)]
						lambda := make([]float64, horizon)
						for q := range lambda {
							lambda[q] = capacity * (load + (next-load)*float64(q)/float64(horizon))
						}
						for _, delta := range []float64{0, 0.15*lambda[0] + 1} {
							label := fmt.Sprintf("%s N=%d c=%v q=%v load=%v δ=%v", spec.Name, horizon, cHat, q0, load, delta)
							got, err := l0.search(sc, q0, lambda, delta, cHat)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							want, err := llc.Exhaustive(l0.model, queue.State{Q: q0}, sc.envs, llc.Options{})
							if err != nil {
								t.Fatalf("%s: naive: %v", label, err)
							}
							for q := range want.Inputs {
								if got.Inputs[q] != want.Inputs[q] || got.States[q] != want.States[q] {
									t.Fatalf("%s: step %d (u %d, %+v), naive (u %d, %+v)", label, q,
										got.Inputs[q], got.States[q], want.Inputs[q], want.States[q])
								}
							}
							if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
								t.Fatalf("%s: cost %v, naive %v", label, got.Cost, want.Cost)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzL0FloorAdmissible: from a random state and forecast, every level's
// floor is at most the stage cost — computed in the walk's arithmetic —
// of a random input sequence at that level.
//
//hpm:pin fuzz
func FuzzL0FloorAdmissible(f *testing.F) {
	f.Add(uint8(0), 0.0, 0.0, 0.0175, 0.0, int64(1))
	f.Add(uint8(1), 120.0, 60.0, 0.0175, 8.0, int64(2))
	f.Add(uint8(2), 2000.0, 150.0, 0.026, 30.0, int64(3))
	f.Add(uint8(3), 5.0, 45.0, 0.0105, 0.5, int64(4))
	f.Fuzz(func(t *testing.T, kind uint8, q0, lam, cHat, delta float64, seed int64) {
		for _, v := range []float64{q0, lam, cHat, delta} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		q0, lam, delta = math.Abs(q0), math.Abs(lam), math.Abs(delta)
		if cHat = math.Abs(cHat); cHat == 0 {
			t.Skip()
		}
		spec, err := cluster.StandardComputer(int(kind%4), "c")
		if err != nil {
			t.Fatal(err)
		}
		m, err := newL0Model(spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		horizon := 1 + rng.Intn(4)
		envs := make([]([]llc.Env), horizon)
		for q := range envs {
			l := lam * (0.5 + rng.Float64())
			envs[q] = []llc.Env{{l, cHat}}
			if delta > 0 {
				envs[q] = []llc.Env{{math.Max(0, l-delta), cHat}, {l, cHat}, {l + delta, cHat}}
			}
		}
		floors := make([]float64, horizon)
		x := queue.State{Q: q0}
		m.Floors(x, envs, floors)
		for q, samples := range envs {
			u := rng.Intn(len(m.phis))
			stage := 0.0
			var nominal queue.State
			for i, env := range samples {
				next := m.Step(x, u, env)
				stage += m.Cost(next, u, env)
				if i == len(samples)/2 {
					nominal = next
				}
			}
			stage /= float64(len(samples))
			if !(floors[q] <= stage) {
				t.Fatalf("level %d (u %d from %+v): floor %v above stage cost %v", q, u, x, floors[q], stage)
			}
			x = nominal
		}
	})
}
