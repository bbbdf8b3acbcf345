package controller

// Allocation pins for the decision tick (the §4.3 controller-overhead
// story): warm controllers must not allocate at all — the decisions they
// return are their own buffers — and the mask and packed-key candidate
// generators must produce exactly the candidate lists of the historical
// allocating ones (legacy_oracle_test.go).

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestGMapEvaluateIntoZeroAlloc pins a probe of the abstraction map g,
// which every L1 term is priced by, at zero allocations into caller
// scratch.
//
//hpm:pin search
func TestGMapEvaluateIntoZeroAlloc(t *testing.T) {
	g := testGMap(t, ctrlSpec("alloc-gmap"))
	scratch := make([]float64, 4)
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, _, err := g.EvaluateInto(scratch, 50, 40, 0.018); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvaluateInto allocated %v/op, want 0", allocs)
	}
}

// TestL0DecideZeroAlloc pins a warm banded L0 decision at zero
// allocations, over a varying queue and arrival forecast.
//
//hpm:pin search
func TestL0DecideZeroAlloc(t *testing.T) {
	l0, err := NewL0(DefaultL0Config(), ctrlSpec("alloc-l0"))
	if err != nil {
		t.Fatal(err)
	}
	lambda := make([]float64, 3)
	decide := func(i int) {
		lam := 40 + 30*math.Sin(float64(i)/9)
		lambda[0], lambda[1], lambda[2] = lam, lam+2, lam+4
		if _, err := l0.Decide(float64((i*7)%200), lambda, 8, 0.0175); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		decide(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		decide(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm L0 decide allocated %v/op, want 0", allocs)
	}
}

// TestL0BandSwitchZeroAlloc: warm decisions alternating between banded
// (δ > 0, three samples a step) and unbanded (δ = 0, one) allocate
// nothing — the forecast store is shaped once for three samples — and
// each equals a fresh controller's decision.
//
//hpm:pin search
func TestL0BandSwitchZeroAlloc(t *testing.T) {
	spec := ctrlSpec("alloc-l0-band")
	l0, err := NewL0(DefaultL0Config(), spec)
	if err != nil {
		t.Fatal(err)
	}
	lambda := make([]float64, 3)
	delta := func(i int) float64 { return float64(i%2) * 8 }
	decide := func(l *L0, i int) int {
		lam := 40 + 30*math.Sin(float64(i)/9)
		lambda[0], lambda[1], lambda[2] = lam, lam+2, lam+4
		u, err := l.Decide(float64((i*7)%200), lambda, delta(i), 0.0175)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	for i := 0; i < 40; i++ {
		fresh, err := NewL0(DefaultL0Config(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := decide(l0, i), decide(fresh, i); got != want {
			t.Fatalf("decision %d (δ = %v): warm controller chose %d, a fresh one %d", i, delta(i), got, want)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		decide(l0, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm L0 decisions alternating banded and unbanded allocated %v/op, want 0", allocs)
	}
}

// TestL1DecideSteadyStateAllocs pins the warm L1 period at zero
// allocations — the returned decision is the controller's own buffers —
// for a four- and a sixteen-computer module.
//
//hpm:pin search
func TestL1DecideSteadyStateAllocs(t *testing.T) {
	for _, m := range []int{4, 16} {
		l1 := newTestL1(t, m)
		swing := 40.0
		if m == 16 {
			swing = 4
		}
		avail := make([]bool, m)
		for j := range avail {
			avail[j] = true
		}
		queues := make([]float64, m)
		var on []bool
		decide := func(i int) {
			lam := 15*float64(m) + swing*math.Sin(float64(i)/9)
			for j := range queues {
				queues[j] = float64((i * (3 + 2*j)) % 80)
			}
			dec, err := l1.Decide(L1Observation{
				QueueLens: queues, On: on, LambdaHat: lam, Delta: 8, CHat: 0.0175, Available: avail,
			})
			if err != nil {
				t.Fatal(err)
			}
			on = dec.Alpha
		}
		for i := 0; i < 20; i++ {
			decide(i)
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			decide(i)
			i++
		})
		if allocs != 0 {
			t.Fatalf("m=%d: warm L1 decide allocated %v/op, want 0", m, allocs)
		}
	}
}

// TestL2DecideSteadyStateAllocs pins the warm L2 period (term and min-plus
// tables sized at NewL2) at zero allocations.
//
//hpm:pin search
func TestL2DecideSteadyStateAllocs(t *testing.T) {
	jts := make([]JTilde, 4)
	for i := range jts {
		jts[i] = allocQuadJTilde{scale: 100 + 20*float64(i)}
	}
	l2, err := NewL2(DefaultL2Config(), jts)
	if err != nil {
		t.Fatal(err)
	}
	qavg := make([]float64, 4)
	chat := []float64{0.0175, 0.0175, 0.0175, 0.0175}
	avail := []bool{true, true, true, true}
	decide := func(i int) {
		lam := 200 + 100*math.Sin(float64(i)/9)
		for j := range qavg {
			qavg[j] = float64((i * (3 + 2*j)) % 40)
		}
		if _, err := l2.Decide(L2Observation{
			QAvg: qavg, LambdaHat: lam, Delta: 20, CHat: chat, Available: avail,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		decide(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		decide(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm L2 decide allocated %v/op, want 0", allocs)
	}
}

type allocQuadJTilde struct{ scale float64 }

func (q allocQuadJTilde) Predict(qAvg, lambda, c float64) (float64, error) {
	return (lambda/q.scale)*(lambda/q.scale) + 0.01*qAvg + 0.8, nil
}

// TestL1CandidateGeneratorsMatchLegacy drives the on/off mask generator
// and the in-test bool-vector oracle through every module size the
// controller accepts and random availability masks, minimum on-counts and
// previous decisions, and requires identical candidate lists, in order.
func TestL1CandidateGeneratorsMatchLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for m := 1; m <= 64; m++ {
		gmaps := make([]*GMap, m)
		for j := range gmaps {
			gmaps[j] = testGMap(t, ctrlSpec("c0"))
		}
		for trial := 0; trial < 12; trial++ {
			cfg := DefaultL1Config()
			cfg.MinOn = 1 + rng.Intn(min(m, 3))
			l1, err := NewL1(cfg, gmaps)
			if err != nil {
				t.Fatal(err)
			}
			avail := make([]bool, m)
			for _, j := range rng.Perm(m)[:1+rng.Intn(m)] {
				avail[j] = true
			}
			// A random previous decision, partly outside availability (a
			// computer that has since failed).
			alpha := make([]bool, m)
			for j := range alpha {
				alpha[j] = rng.Intn(3) > 0
			}
			l1.on = packBools(alpha)
			var want []uint64
			for _, a := range alphaCandidatesLegacy(l1, alpha, avail) {
				want = append(want, packBools(a))
			}
			if got := l1.alphaCandidates(avail); !reflect.DeepEqual(got, want) {
				t.Fatalf("m=%d trial %d: masks %x, oracle %x", m, trial, got, want)
			}
		}
	}
}
