package central

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestCentralHasNoMemory is the flat controller's half of the property that
// every controller's Decide is a pure function of its observation: over
// seeded random observations, the configuration in force among them, a
// controller warmed by a run of unrelated decisions decides bit for bit as
// a fresh one does, its explored count included.
//
//hpm:pin checkpoint
func TestCentralHasNoMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := range 40 {
		n := 2 + rng.Intn(4)
		cfg := DefaultConfig()
		cfg.NeighbourDepth = 1 + rng.Intn(2)
		draw := func() Observation {
			o := Observation{
				QueueLens: make([]float64, n),
				LambdaHat: math.Round(40 * float64(n) * rng.Float64()),
				CHat:      0.014 + 0.008*rng.Float64(),
			}
			if rng.Intn(2) == 0 {
				o.Delta = math.Round(20 * rng.Float64())
			}
			for j := range o.QueueLens {
				o.QueueLens[j] = math.Round(80 * rng.Float64())
			}
			if rng.Intn(2) == 0 {
				o.Available = make([]bool, n)
				for j := range o.Available {
					o.Available[j] = rng.Intn(4) != 0
				}
			}
			if rng.Intn(4) != 0 {
				in := Decision{Alpha: make([]bool, n), Gamma: make([]float64, n), FreqIdx: make([]int, n)}
				for j := range n {
					in.Alpha[j] = rng.Intn(3) != 0
					in.FreqIdx[j] = rng.Intn(4)
				}
				for range int(math.Round(1 / quantum)) {
					in.Gamma[rng.Intn(n)] += quantum
				}
				o.InForce = &in
			}
			return o
		}
		build := func() *Controller {
			ctl, err := New(cfg, testSpecs(n))
			if err != nil {
				t.Fatal(err)
			}
			return ctl
		}
		warm := build()
		for range 1 + rng.Intn(4) {
			warm.Decide(draw()) // a failed decision warms it as well
		}
		o := draw()
		dec, err := warm.Decide(o)
		got := fmt.Sprintf("%+v | %v", dec, err)
		dec, err = build().Decide(o)
		if want := fmt.Sprintf("%+v | %v", dec, err); got != want {
			t.Fatalf("trial %d: warmed controller decides\n%s\na fresh one\n%s", trial, got, want)
		}
	}
}
