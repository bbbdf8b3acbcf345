package controller

// The whole-simplex L2, kept as the reference the dynamic program is
// compared against: every quantized allocation, in EnumerateSimplex order,
// priced module by module from J̃ predictions made afresh for each one, the
// module terms summed as the same right fold, and the first optimum of
// every suffix of the fold taken.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	flight "hierctl/internal/obs"
)

// EnumerateSimplex lists every quantized simplex vector over the masked
// entries (compositions of 1/quantum units), the first masked entry's
// units ascending, then the next's, the last masked entry taking what
// remains. The count grows combinatorially (CountSimplex).
func EnumerateSimplex(n int, mask []bool, quantum float64) [][]float64 {
	units := int(math.Round(1 / quantum))
	var active []int
	for i := 0; i < n; i++ {
		if mask == nil || mask[i] {
			active = append(active, i)
		}
	}
	var out [][]float64
	if len(active) == 0 {
		return out
	}
	comp := make([]int, len(active))
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos == len(active)-1 {
			comp[pos] = remaining
			g := make([]float64, n)
			for k, idx := range active {
				g[idx] = float64(comp[k]) * quantum
			}
			out = append(out, g)
			return
		}
		for u := 0; u <= remaining; u++ {
			comp[pos] = u
			rec(pos+1, remaining-u)
		}
	}
	rec(0, units)
	return out
}

// CountSimplex returns the number of vectors EnumerateSimplex would
// produce for k active entries: C(units+k-1, k-1).
func CountSimplex(k int, quantum float64) int {
	if k <= 0 {
		return 0
	}
	units := int(math.Round(1 / quantum))
	// Compute the binomial coefficient iteratively.
	n := units + k - 1
	r := k - 1
	if r > n-r {
		r = n - r
	}
	acc := 1
	for i := 1; i <= r; i++ {
		acc = acc * (n - r + i) / i
	}
	return acc
}

// enumerationDecide is the oracle's decision: the winning γ and its cost.
// Module i's term is the band-sample mean of its J̃ plus its reallocation
// cost; an allocation costs the right fold of the terms, and its tie key
// is (V_1, u_1, V_2, u_2, …), V_i the fold of modules i.., so the least
// key is the optimum whose every suffix is the first optimum of its own.
func enumerationDecide(t *testing.T, jts []JTilde, banded bool, obs L2Observation, prev []float64) ([]float64, float64) {
	t.Helper()
	var buf [3]float64
	samples := bandSamples(&buf, math.Max(0, obs.LambdaHat), obs.Delta, banded)
	var best []float64
	var bestKey []float64
	for _, gamma := range EnumerateSimplex(len(jts), obs.Available, QuantumL2) {
		key := make([]float64, 2*len(jts))
		v := 0.0
		for i := len(jts) - 1; i >= 0; i-- {
			sum := 0.0
			for _, lam := range samples {
				if !obs.Available[i] {
					break
				}
				c, err := jts[i].Predict(obs.QAvg[i], gamma[i]*lam, obs.CHat[i])
				if err != nil {
					t.Fatal(err)
				}
				sum += c
			}
			v = sum/float64(len(samples)) + DeltaWeight*math.Abs(gamma[i]-prev[i]) + v
			key[2*i], key[2*i+1] = v, gamma[i]
		}
		if bestKey == nil || slices.Compare(key, bestKey) < 0 {
			best, bestKey = gamma, key
		}
	}
	if best == nil {
		t.Fatal("oracle: no allocation")
	}
	return best, bestKey[0]
}

// stepJTilde is a piecewise-constant J̃, the shape of a fitted regression
// tree: one value per arrival-rate interval plus a queue term in steps.
type stepJTilde struct {
	cuts   []float64 // ascending λ thresholds
	values []float64 // len(cuts)+1
	qStep  float64   // added per 10 queued requests
}

func (j *stepJTilde) Predict(q, lambda, c float64) (float64, error) {
	k, _ := slices.BinarySearch(j.cuts, lambda)
	return j.values[k] + j.qStep*math.Floor(q/10), nil
}

// randomStepJTilde draws a step J̃ over λ ∈ [0, 500]. With coarse values
// many allocations tie exactly; decimal ones (0.1 + 0.2 ≠ 0.3) tie only up
// to rounding; some are negative. Without coarse values every value is a
// Gaussian draw, so ties are rare.
func randomStepJTilde(rng *rand.Rand, coarse bool) *stepJTilde {
	pool := []float64{-1.5, -0.3, 0, 0.1, 0.2, 0.3, 0.5, 0.7, 1, 2, 4}
	draw := func() float64 {
		if coarse && rng.Intn(4) != 0 {
			return pool[rng.Intn(len(pool))]
		}
		return 3 * rng.NormFloat64()
	}
	j := &stepJTilde{cuts: make([]float64, 1+rng.Intn(6)), qStep: draw()}
	for k := range j.cuts {
		j.cuts[k] = math.Round(500 * rng.Float64())
	}
	slices.Sort(j.cuts)
	j.values = make([]float64, len(j.cuts)+1)
	for k := range j.values {
		j.values[k] = draw()
	}
	return j
}

// randomL2Observation draws queues, a forecast and band, estimates and an
// availability mask with at least one module up.
func randomL2Observation(rng *rand.Rand, p int) L2Observation {
	obs := L2Observation{
		QAvg:      make([]float64, p),
		LambdaHat: math.Round(400 * rng.Float64()),
		CHat:      make([]float64, p),
		Available: make([]bool, p),
	}
	if rng.Intn(3) == 0 {
		obs.Delta = math.Round(60 * rng.Float64())
	}
	for i := range obs.QAvg {
		obs.QAvg[i] = float64(rng.Intn(40))
		obs.CHat[i] = 0.01 + 0.02*rng.Float64()
		obs.Available[i] = rng.Intn(4) != 0
	}
	obs.Available[rng.Intn(p)] = true
	return obs
}

// checkAgainstOracle runs decisions on a fresh L2 from a random previous
// γ and requires each γ and recorded cost to be bit-equal to the oracle's,
// and the work to be 11 terms per available module and band sample.
func checkAgainstOracle(t *testing.T, rng *rand.Rand, jts []JTilde, decisions int) {
	t.Helper()
	p := len(jts)
	cfg := DefaultL2Config()
	cfg.UncertaintySamples = rng.Intn(4) != 0
	l2, err := NewL2(cfg, jts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flight.NewRecorder(4 * (p + 1))
	if err != nil {
		t.Fatal(err)
	}
	l2.SetRecorder(rec)
	// The first decision prices from the fresh split (Split nil) or a
	// random one; each later one from its predecessor's.
	prev := EqualSplit(make([]float64, p))
	var split []float64
	if rng.Intn(4) != 0 {
		clear(prev)
		for range unitsL2 {
			prev[rng.Intn(p)] += QuantumL2
		}
		split = prev
	}
	for d := 0; d < decisions; d++ {
		obs := randomL2Observation(rng, p)
		obs.Split = split
		wantGamma, wantCost := enumerationDecide(t, jts, cfg.UncertaintySamples, obs, prev)
		dec, err := l2.Decide(obs)
		if err != nil {
			t.Fatal(err)
		}
		recs := rec.Window(nil, 0)
		gotCost := recs[len(recs)-p-1].Cost
		for i := range wantGamma {
			if math.Float64bits(dec.Gamma[i]) != math.Float64bits(wantGamma[i]) {
				t.Fatalf("%d modules, decision %d: γ %v, enumeration %v (obs %+v, prev %v)", p, d, dec.Gamma, wantGamma, obs, prev)
			}
		}
		if math.Float64bits(gotCost) != math.Float64bits(wantCost) {
			t.Fatalf("%d modules, decision %d: cost %v, enumeration %v", p, d, gotCost, wantCost)
		}
		a, s := countOn(obs.Available), 1
		if cfg.UncertaintySamples && obs.Delta > 0 {
			s = 3
		}
		if dec.Explored != (unitsL2+1)*a*s {
			t.Fatalf("%d modules: explored %d, want 11·%d·%d", p, dec.Explored, a, s)
		}
		copy(prev, wantGamma)
		split = prev
	}
}

// TestL2MatchesEnumerationOracle: at 1-6 modules the dynamic program picks
// the allocation full enumeration picks, at the same cost, bit for bit —
// over piecewise-constant J̃ (some shared between modules, so exact ties
// are common), masks, bands and previous allocations.
//
//hpm:pin search
func TestL2MatchesEnumerationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, tc := range []struct{ modules, trials int }{
		{1, 100}, {2, 600}, {3, 600}, {4, 400}, {5, 200}, {6, 100},
	} {
		for trial := 0; trial < tc.trials; trial++ {
			shapes := make([]JTilde, 1+rng.Intn(tc.modules))
			for k := range shapes {
				shapes[k] = randomStepJTilde(rng, true)
			}
			jts := make([]JTilde, tc.modules)
			for i := range jts {
				jts[i] = shapes[rng.Intn(len(shapes))]
			}
			checkAgainstOracle(t, rng, jts, 3)
		}
	}
}

// TestL2ExactAboveSixModules: past six modules the dynamic program still
// equals full enumeration (7-9 modules, a J̃ of its own per module); and at
// 64 modules of flat cost, three share-carrying ones down, where every
// placement of their three quanta ties, it prices 11 terms per available
// module and sample and returns an optimum, its recorded cost the table's
// head.
//
//hpm:pin search
func TestL2ExactAboveSixModules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ modules, trials int }{{7, 6}, {8, 3}, {9, 2}} {
		for trial := 0; trial < tc.trials; trial++ {
			jts := make([]JTilde, tc.modules)
			for i := range jts {
				jts[i] = randomStepJTilde(rng, false)
			}
			checkAgainstOracle(t, rng, jts, 2)
		}
	}

	const p = 64
	flat := funcJTilde(func(q, lambda, c float64) float64 { return 1 })
	jts := make([]JTilde, p)
	for i := range jts {
		jts[i] = flat
	}
	l2, err := NewL2(DefaultL2Config(), jts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flight.NewRecorder(2 * (p + 1))
	if err != nil {
		t.Fatal(err)
	}
	l2.SetRecorder(rec)
	obs := L2Observation{QAvg: make([]float64, p), LambdaHat: 300, Delta: 30, CHat: make([]float64, p), Available: make([]bool, p)}
	fresh := EqualSplit(make([]float64, p))
	down := 0
	for i := range obs.Available {
		obs.Available[i] = true
		if fresh[i] > 0 && down < 3 {
			obs.Available[i] = false
			down++
		}
	}
	dec, err := l2.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	if want := (unitsL2 + 1) * (p - 3) * 3; dec.Explored != want {
		t.Fatalf("flat cost: explored %d, want %d", dec.Explored, want)
	}
	recs := rec.Window(nil, 0)
	if cost := recs[len(recs)-p-1].Cost; cost != l2.suf[unitsL2] {
		t.Fatalf("flat cost: recorded cost %v, table head %v", cost, l2.suf[unitsL2])
	}
	// Every available module costs 1 and each of the three stranded quanta
	// is δ·q to take off and δ·q to put anywhere else.
	units := 0
	for i, g := range dec.Gamma {
		if !obs.Available[i] && g != 0 {
			t.Fatalf("module %d is down and got γ %v", i, g)
		}
		units += int(math.Round(g / QuantumL2))
	}
	if optimum := float64(p-3) + 6*DeltaWeight*QuantumL2; units != unitsL2 || math.Abs(l2.suf[unitsL2]-optimum) > 1e-9 {
		t.Fatalf("flat cost: γ %v (%d quanta) at cost %v, optimum %v", dec.Gamma, units, l2.suf[unitsL2], optimum)
	}
}

// TestL2ExploredLinearInModules is L2's half of the §4.3 overhead claim:
// a decision explores exactly 11·A·S priced terms (A available modules, S
// band samples), so its work grows linearly in modules — at 8, 16, 32 and
// 64 modules no decision explores more per module than the most a 4-module
// one does. Explored counts are deterministic, so the bound cannot flake.
//
//hpm:pin search
func TestL2ExploredLinearInModules(t *testing.T) {
	perModule4 := 0.0
	for _, p := range []int{4, 8, 16, 32, 64} {
		jts := make([]JTilde, p)
		for i := range jts {
			jts[i] = allocQuadJTilde{scale: 100 + 20*float64(i)}
		}
		l2, err := NewL2(DefaultL2Config(), jts)
		if err != nil {
			t.Fatal(err)
		}
		qavg, chat, avail := make([]float64, p), make([]float64, p), make([]bool, p)
		most := 0
		for d := 0; d < 4; d++ {
			for i := range qavg {
				qavg[i] = float64((d * (3 + 2*i)) % 40)
				chat[i] = 0.0175
				avail[i] = d != 3 || i%7 != 0
			}
			dec, err := l2.Decide(L2Observation{QAvg: qavg, LambdaHat: 40 * float64(p+d), Delta: 20, CHat: chat, Available: avail})
			if err != nil {
				t.Fatal(err)
			}
			if want := (unitsL2 + 1) * countOn(avail) * 3; dec.Explored != want {
				t.Fatalf("%d modules, decision %d: explored %d, want 11·A·S = %d", p, d, dec.Explored, want)
			}
			most = max(most, dec.Explored)
		}
		perModule := float64(most) / float64(p)
		if p == 4 {
			perModule4 = perModule
		} else if perModule > perModule4 {
			t.Errorf("%d modules: %d explored a decision, %.1f per module, above 4 modules' %.1f", p, most, perModule, perModule4)
		}
		t.Logf("%d modules: at most %d explored a decision", p, most)
	}
}
