package controller

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// memoryTrials is how many observations each controller is checked on.
const memoryTrials = 80

// memorySetup is one trial's controller: build makes a fresh one, whose
// decide runs a decision; draw draws an observation.
type memorySetup[O any] struct {
	build func() (decide func(O) (any, error))
	draw  func() O
}

// rendered is a decision as a string, bit for bit (%v prints each float
// in its shortest exact form, -0 included, so its Cost counts), with its
// error.
func rendered(dec any, err error) string {
	return fmt.Sprintf("%+v | %v", dec, err)
}

// checkNoMemory: over memoryTrials seeded trials, a controller warmed by a
// run of unrelated decisions — some of them tripping the trial's budget
// mid-search — decides a new observation exactly as a fresh controller of
// the same configuration does.
func checkNoMemory[O any](t *testing.T, rng *rand.Rand, setup func() memorySetup[O]) {
	t.Helper()
	for trial := range memoryTrials {
		s := setup()
		warm := s.build()
		for range 1 + rng.Intn(6) {
			warm(s.draw()) // a failed decision warms it as well
		}
		o := s.draw()
		got := rendered(warm(o))
		if want := rendered(s.build()(o)); got != want {
			t.Fatalf("trial %d: warmed controller decides\n%s\na fresh one\n%s", trial, got, want)
		}
	}
}

// budget draws a decision budget: none, or one small enough to trip.
func budget(rng *rand.Rand, most int) int {
	if rng.Intn(3) == 0 {
		return 1 + rng.Intn(most)
	}
	return 0
}

// TestControllersHaveNoMemory is the property that every controller's
// Decide is a pure function of its observation: a warmed L0, L1 or L2
// decides a seeded random observation bit for bit as a fresh one does, its
// explored count and cost included. The L1's on/off vector and the L2's
// split in force come in with the observation, drawn at random like the
// rest of it. It is why no controller is checkpointed.
//
//hpm:pin checkpoint
func TestControllersHaveNoMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	t.Run("L0", func(t *testing.T) {
		checkNoMemory(t, rng, func() memorySetup[[]float64] {
			cfg := L0Config{Horizon: 1 + rng.Intn(3)}
			spec := ctrlSpec("c")
			spec.SpeedFactor = []float64{0.75, 1, 1.5}[rng.Intn(3)]
			limit := budget(rng, 60)
			return memorySetup[[]float64]{
				build: func() func([]float64) (any, error) {
					l0, err := NewL0(cfg, spec)
					if err != nil {
						t.Fatal(err)
					}
					l0.SetMaxExplored(limit)
					sc := new(Scratch)
					return func(o []float64) (any, error) { return l0.Decide(sc, o[0], o[3:], o[1], o[2]) }
				},
				// {queue, δ, ĉ, λ̂ per horizon step...}
				draw: func() []float64 {
					o := []float64{math.Round(300 * rng.Float64()), 0, 0.014 + 0.008*rng.Float64()}
					if rng.Intn(2) == 0 {
						o[1] = math.Round(20 * rng.Float64())
					}
					for range 1 + rng.Intn(3) {
						o = append(o, math.Round(80*rng.Float64()))
					}
					return o
				},
			}
		})
	})
	t.Run("L1", func(t *testing.T) {
		checkNoMemory(t, rng, func() memorySetup[L1Observation] {
			m := 1 + rng.Intn(4)
			gmaps := make([]*GMap, m)
			for j := range gmaps {
				gmaps[j] = randomGMap(t, rng, randomMapSpec{
					speed:  []float64{0.75, 1, 1.5}[rng.Intn(3)],
					base:   []float64{0, 0.5, 1}[rng.Intn(3)],
					coarse: rng.Intn(2) == 0,
				})
			}
			cfg := DefaultL1Config()
			cfg.MinOn = 1 + rng.Intn(min(m, 3))
			cfg.UncertaintySamples = rng.Intn(4) != 0
			limit := budget(rng, 40)
			return memorySetup[L1Observation]{
				build: func() func(L1Observation) (any, error) {
					l1, err := NewL1(cfg, gmaps)
					if err != nil {
						t.Fatal(err)
					}
					l1.SetMaxExplored(limit)
					sc := new(Scratch)
					return func(o L1Observation) (any, error) { return l1.Decide(sc, o) }
				},
				draw: func() L1Observation {
					o := L1Observation{
						QueueLens: make([]float64, m),
						LambdaHat: math.Round(60 * float64(m) * rng.Float64()),
						CHat:      0.014 + 0.008*rng.Float64(),
					}
					if rng.Intn(2) == 0 {
						o.Delta = math.Round(20 * rng.Float64())
					}
					for j := range o.QueueLens {
						o.QueueLens[j] = math.Round(80 * rng.Float64())
					}
					if rng.Intn(4) != 0 {
						o.On = randomBools(rng, m)
					}
					if rng.Intn(2) == 0 {
						o.Available = randomBools(rng, m)
					}
					return o
				},
			}
		})
	})
	t.Run("L2", func(t *testing.T) {
		checkNoMemory(t, rng, func() memorySetup[L2Observation] {
			p := 1 + rng.Intn(5)
			jts := make([]JTilde, p)
			for i := range jts {
				jts[i] = randomStepJTilde(rng, rng.Intn(2) == 0)
			}
			cfg := DefaultL2Config()
			cfg.UncertaintySamples = rng.Intn(4) != 0
			limit := budget(rng, 80)
			return memorySetup[L2Observation]{
				build: func() func(L2Observation) (any, error) {
					l2, err := NewL2(cfg, jts)
					if err != nil {
						t.Fatal(err)
					}
					l2.SetMaxExplored(limit)
					sc := new(Scratch)
					return func(o L2Observation) (any, error) { return l2.Decide(sc, o) }
				},
				draw: func() L2Observation {
					o := randomL2Observation(rng, p)
					if rng.Intn(4) != 0 {
						o.Split = make([]float64, p)
						for range unitsL2 {
							o.Split[rng.Intn(p)] += QuantumL2
						}
					}
					return o
				},
			}
		})
	})
}

// randomBools draws an on/off vector.
func randomBools(rng *rand.Rand, n int) []bool {
	b := make([]bool, n)
	for j := range b {
		b[j] = rng.Intn(3) != 0
	}
	return b
}
