package controller

// Allocation pins for the decision tick (the §4.3 controller-overhead
// story): warm controllers must not allocate at all — the decisions they
// return are their own buffers — and the pooled/packed candidate generator must
// produce exactly the candidate lists of the historical allocating ones
// (legacy_oracle_test.go).

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

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
// allocations — the returned decision is the controller's own buffers — for
// a one-word γ key (m = 4) and a two-word one (m = 16).
func TestL1DecideSteadyStateAllocs(t *testing.T) {
	for _, m := range []int{4, 16} {
		l1 := newTestL1(t, m)
		swing := 40.0
		if m == 16 {
			// Depth 1 keeps a 16-computer decision in the millisecond
			// range — the key stride (80 bits → 2 words) is what is
			// pinned — and a steady load keeps the on/off masks it visits
			// inside the candidate table's bound.
			cfg := DefaultL1Config()
			cfg.NeighbourDepth = 1
			var err error
			if l1, err = NewL1(cfg, testModuleGMaps(t, m), nil); err != nil {
				t.Fatal(err)
			}
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

// TestL2DecideSteadyStateAllocs pins the warm L2 period (enumeration
// path, table hot) at zero allocations.
func TestL2DecideSteadyStateAllocs(t *testing.T) {
	jts := make([]JTilde, 4)
	for i := range jts {
		jts[i] = allocQuadJTilde{scale: 100 + 20*float64(i)}
	}
	l2, err := NewL2(DefaultL2Config(), jts, nil)
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

// TestL1CandidateGeneratorsMatchLegacy drives the one candidate generator
// and the in-test string-keyed oracle through every module size the
// controller accepts, four quanta, and random availability masks and
// previous decisions, and requires identical candidate lists, in order.
func TestL1CandidateGeneratorsMatchLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Three capacities, cycled, so seed allocations are not uniform.
	var pool []*GMap
	for _, speed := range []float64{1, 0.75, 1.5} {
		spec := ctrlSpec(fmt.Sprintf("oracle-%v", speed))
		spec.SpeedFactor = speed
		pool = append(pool, testGMap(t, spec))
	}
	for m := 1; m <= 64; m++ {
		gmaps := make([]*GMap, m)
		for j := range gmaps {
			gmaps[j] = pool[j%len(pool)]
		}
		for _, quantum := range []float64{0.05, 0.1, 0.2, 0.25} {
			cfg := DefaultL1Config()
			cfg.Quantum = quantum
			l1, err := NewL1(cfg, gmaps, nil)
			if err != nil {
				t.Fatal(err)
			}
			trials := 12
			if m > 8 {
				trials = 3
			}
			for trial := 0; trial < trials; trial++ {
				// Above 8 computers the depth-2 neighbourhood of a full
				// module runs to 10^4..10^6 vectors; keep at most 6
				// available, at random positions, so the supports stay
				// small while the keys still span every word.
				maxUp := m
				if m > 8 {
					maxUp = 6
				}
				avail := make([]bool, m)
				for _, j := range rng.Perm(m)[:1+rng.Intn(maxUp)] {
					avail[j] = true
				}
				// Random previous decision on the quantized simplex, partly
				// outside availability (a computer that has since failed).
				alpha := make([]bool, m)
				for j := range alpha {
					alpha[j] = avail[j] && rng.Intn(3) > 0
				}
				alpha[rng.Intn(m)] = true
				weights := make([]float64, m)
				for j := range weights {
					weights[j] = rng.Float64()
				}
				gamma, err := SnapSimplex(weights, alpha, quantum)
				if err != nil {
					t.Fatal(err)
				}
				if err := l1.SetState(alpha, gamma); err != nil {
					t.Fatal(err)
				}

				at := fmt.Sprintf("m=%d quantum=%v trial %d", m, quantum, trial)
				gotA := l1.alphaCandidates(avail)
				wantA := alphaCandidatesLegacy(l1, avail)
				if !reflect.DeepEqual(gotA, wantA) {
					t.Fatalf("%s: alpha candidates diverged:\n got %v\nwant %v", at, gotA, wantA)
				}
				for _, cand := range wantA {
					gotG := l1.gammaCandidates(cand)
					wantG := gammaCandidatesLegacy(l1, cand)
					if len(gotG) != len(wantG) {
						t.Fatalf("%s: %d gamma candidates for %v, oracle %d", at, len(gotG), cand, len(wantG))
					}
					for i := range wantG {
						if !reflect.DeepEqual(gotG[i], wantG[i]) {
							t.Fatalf("%s: gamma candidate %d for %v diverged: %v vs %v", at, i, cand, gotG[i], wantG[i])
						}
					}
				}
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

// tableFloats counts the float64s a table's published vectors hold.
func tableFloats(tb *CandidateTable) int {
	n := 0
	for _, e := range *tb.sets.Load() {
		for _, c := range e.cands {
			n += len(c)
		}
	}
	return n
}

// TestL1GammaMemoBoundedByFloats pins the candidate table's footprint
// bound: two 16-computer controllers sharing one table, driven between them
// through more distinct availability masks than the table can hold, stop
// storing at maxGammaMemoFloats for the table as a whole — one bound per
// table, not per controller, and not an entry count, which at this module
// size let ~0.5 GB accumulate — and a miss past the bound changes nothing
// but allocation: every candidate list, and every decision under rotating
// failure masks, equals those of a controller whose table is always empty.
func TestL1GammaMemoBoundedByFloats(t *testing.T) {
	const m = 16
	gmaps := testModuleGMaps(t, m)
	cfg := DefaultL1Config()
	shared := NewCandidateTable(L1TableKey(cfg, gmaps))
	var sharers [2]*L1
	for i := range sharers {
		l1, err := NewL1(cfg, gmaps, shared)
		if err != nil {
			t.Fatal(err)
		}
		sharers[i] = l1
	}
	fresh, err := NewL1(cfg, gmaps, nil)
	if err != nil {
		t.Fatal(err)
	}
	forget := func() { fresh.table = NewCandidateTable(fresh.table.key) }

	// The first 260 ways (of 12,870) to fail half of sixteen computers —
	// past the old 256-entry cap, a few tens of kilofloats per entry —
	// alternating between the two sharers.
	masks, offered := 0, 0
	alpha := make([]bool, m)
	for bitsOn := uint16(0); masks < 260; bitsOn++ {
		if bits.OnesCount16(bitsOn) != m/2 {
			continue
		}
		for j := range alpha {
			alpha[j] = bitsOn>>j&1 == 1
		}
		forget()
		want := fresh.gammaCandidates(alpha)
		got := sharers[masks%2].gammaCandidates(alpha)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mask %d: shared-table candidate list (%d) differs from a fresh one (%d)", masks, len(got), len(want))
		}
		masks++
		offered += tableFloats(fresh.table)
		if shared.floats > maxGammaMemoFloats || shared.floats != tableFloats(shared) {
			t.Fatalf("mask %d: table accounts %d floats, holds %d, bound %d", masks, shared.floats, tableFloats(shared), maxGammaMemoFloats)
		}
	}
	if held := shared.Len(); held == 0 || held >= masks || offered <= maxGammaMemoFloats {
		t.Fatalf("%d masks offering %d floats left %d stored: the bound (%d) never bound", masks, offered, held, maxGammaMemoFloats)
	}

	// Decisions with the table full, under rotating failures (half the
	// module down keeps a 16-computer search short), against the
	// controller whose table is emptied every period.
	avail := make([]bool, m)
	queues := make([]float64, m)
	for i := 0; i < 3; i++ {
		for j := range avail {
			avail[j] = (j+i)%2 == 0
			queues[j] = float64((i*(3+2*j) + j) % 40)
		}
		obs := L1Observation{QueueLens: queues, LambdaHat: 40 + 25*float64(i), Delta: 6, CHat: 0.0175, Available: avail}
		forget()
		want, err := fresh.Decide(obs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharers[0].Decide(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("period %d: decision %+v with a full table, %+v without one", i, got, want)
		}
		if shared.floats > maxGammaMemoFloats {
			t.Fatalf("period %d: table holds %d floats, bound %d", i, shared.floats, maxGammaMemoFloats)
		}
	}
}

// TestL2EnumerationBoundedByFloats: the L2's table has the same float
// bound. Twelve modules, six of them up, enumerate 3,003 vectors of twelve
// floats a mask, so the bound binds after a few dozen of the 924 masks; past
// it an enumeration still equals a fresh one, and the table stops growing.
func TestL2EnumerationBoundedByFloats(t *testing.T) {
	const p = 12
	jts := make([]JTilde, p)
	for i := range jts {
		jts[i] = allocQuadJTilde{scale: 100}
	}
	l2, err := NewL2(DefaultL2Config(), jts, nil)
	if err != nil {
		t.Fatal(err)
	}
	masks, offered := 0, 0
	avail := make([]bool, p)
	for bitsOn := uint16(0); masks < 48; bitsOn++ {
		if bits.OnesCount16(bitsOn) != p/2 || bitsOn>>p != 0 {
			continue
		}
		for i := range avail {
			avail[i] = bitsOn>>i&1 == 1
		}
		want := EnumerateSimplex(p, avail, l2.cfg.Quantum)
		if got := l2.enumeration(avail); !reflect.DeepEqual(got, want) {
			t.Fatalf("mask %d: table enumeration (%d) differs from a fresh one (%d)", masks, len(got), len(want))
		}
		masks++
		offered += len(want) * p
		if tb := l2.table; tb.floats > maxGammaMemoFloats || tb.floats != tableFloats(tb) {
			t.Fatalf("mask %d: table accounts %d floats, holds %d, bound %d", masks, tb.floats, tableFloats(tb), maxGammaMemoFloats)
		}
	}
	if held := l2.table.Len(); held == 0 || held >= masks || offered <= maxGammaMemoFloats {
		t.Fatalf("%d masks offering %d floats left %d stored: the bound (%d) never bound", masks, offered, held, maxGammaMemoFloats)
	}
}
