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
		if _, err := l0.DecideBanded(float64((i*7)%200), lambda, 8, 0.0175); err != nil {
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
		u, err := l.DecideBanded(float64((i*7)%200), lambda, delta(i), 0.0175)
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
		decide := func(i int) {
			lam := 15*float64(m) + swing*math.Sin(float64(i)/9)
			for j := range queues {
				queues[j] = float64((i * (3 + 2*j)) % 80)
			}
			if _, err := l1.Decide(L1Observation{
				QueueLens: queues, LambdaHat: lam, Delta: 8, CHat: 0.0175, Available: avail,
			}); err != nil {
				t.Fatal(err)
			}
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
			if err := l1.SetState(alpha, make([]float64, m)); err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for _, a := range alphaCandidatesLegacy(l1, avail) {
				want = append(want, packBools(a))
			}
			if got := l1.alphaCandidates(avail); !reflect.DeepEqual(got, want) {
				t.Fatalf("m=%d trial %d: masks %x, oracle %x", m, trial, got, want)
			}
		}
	}
}

// TestSimplexNeighboursMatchesStringKeyedOracle pins the packed-word
// dedup set inside SimplexNeighbours against the string-keyed oracle on
// full-support neighbourhoods whose keys are one, two and three words.
func TestSimplexNeighboursMatchesStringKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{3, 12, 13, 16, 30} {
		mask := make([]bool, n)
		weights := make([]float64, n)
		for j := range mask {
			mask[j] = rng.Intn(5) > 0
			weights[j] = rng.Float64()
		}
		mask[0] = true
		seed, err := SnapSimplex(weights, mask, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		depth := 2
		if n > 16 {
			depth = 1
		}
		got := SimplexNeighbours(seed, mask, 0.05, depth)
		want := simplexNeighboursLegacy(seed, mask, 0.05, depth)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: %d neighbours, oracle %d (or order differs)", n, len(got), len(want))
		}
	}
}

// TestGammaPackedKeyMatchesStringKey: the packed multi-word key must
// induce exactly the string key's equivalence, including where entries
// straddle a word boundary (m·bits = 60, 64, 65, 128, 320).
func TestGammaPackedKeyMatchesStringKey(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct {
		n       int
		quantum float64
		bits    int
	}{
		{12, 0.05, 60}, {16, 0.1, 64}, {13, 0.05, 65}, {32, 0.1, 128}, {64, 0.05, 320},
		{1, 0.5, 2}, {6, 0.25, 18}, {64, 1, 64},
	}
	for _, sh := range shapes {
		per, words := gammaLayout(sh.n, sh.quantum)
		if sh.n*int(per) != sh.bits || words != (sh.bits+63)/64 {
			t.Fatalf("(%d, %v): layout %d bits x %d words, want %d bits total", sh.n, sh.quantum, per, words, sh.bits)
		}
		for trial := 0; trial < 200; trial++ {
			mask := make([]bool, sh.n)
			mask[rng.Intn(sh.n)] = true
			for j := range mask {
				if rng.Intn(2) == 0 {
					mask[j] = true
				}
			}
			weights := make([]float64, sh.n)
			for j := range weights {
				weights[j] = rng.Float64()
			}
			a, err := SnapSimplex(weights, mask, sh.quantum)
			if err != nil {
				t.Fatal(err)
			}
			// b: a itself, a single-quantum move of it, or a fresh draw —
			// near-equal vectors are where a dropped bit would show.
			b := append([]float64(nil), a...)
			switch trial % 3 {
			case 1:
				from, to := rng.Intn(sh.n), rng.Intn(sh.n)
				if b[from] >= sh.quantum && mask[to] {
					b[from] -= sh.quantum
					b[to] += sh.quantum
				}
			case 2:
				for j := range weights {
					weights[j] = rng.Float64()
				}
				if b, err = SnapSimplex(weights, mask, sh.quantum); err != nil {
					t.Fatal(err)
				}
			}
			ka := appendGammaKey(nil, a, sh.quantum, per)
			kb := appendGammaKey(nil, b, sh.quantum, per)
			if len(ka) != words || len(kb) != words {
				t.Fatalf("(%d, %v): key of %d words, layout says %d", sh.n, sh.quantum, len(ka), words)
			}
			samePacked := reflect.DeepEqual(ka, kb)
			sameString := gammaKey(a, sh.quantum) == gammaKey(b, sh.quantum)
			if samePacked != sameString {
				t.Fatalf("(%d, %v) trial %d: packed equality %v, string equality %v for %v / %v", sh.n, sh.quantum, trial, samePacked, sameString, a, b)
			}
		}
	}
}
