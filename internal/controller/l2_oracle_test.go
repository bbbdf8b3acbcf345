package controller

// The whole-simplex L2, kept as the reference the dynamic program is
// compared against: every quantized allocation, in EnumerateSimplex order,
// priced by llc.OneStep with one J̃ prediction per module per
// candidate-sample and no pruning. The first strictly cheapest allocation
// wins.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hierctl/internal/llc"
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

// enumerationPricer prices whole γ vectors: one Predict per available
// module per sample, summed per sample module by module, then the
// reallocation terms added to the mean.
type enumerationPricer struct {
	jts     []JTilde
	obs     L2Observation
	samples []float64
	prev    []float64
}

func (p *enumerationPricer) Price(gamma []float64, si int, sum float64) (float64, error) {
	for i := range gamma {
		if !p.obs.Available[i] {
			continue
		}
		c, err := p.jts[i].Predict(p.obs.QAvg[i], gamma[i]*p.samples[si], p.obs.CHat[i])
		if err != nil {
			return sum, err
		}
		sum += c
	}
	return sum, nil
}

func (p *enumerationPricer) Finish(gamma []float64, mean float64) float64 {
	for i := range gamma {
		mean += DeltaWeight * math.Abs(gamma[i]-p.prev[i])
	}
	return mean
}

// enumerationDecide is the oracle's decision: the winning γ and its cost.
func enumerationDecide(t *testing.T, jts []JTilde, banded bool, obs L2Observation, prev []float64) ([]float64, float64) {
	t.Helper()
	var buf [3]float64
	samples := bandSamples(&buf, math.Max(0, obs.LambdaHat), obs.Delta, banded)
	cands := EnumerateSimplex(len(jts), obs.Available, QuantumL2)
	var sc llc.Scan
	bi, cost, err := llc.OneStep(&sc, &enumerationPricer{jts: jts, obs: obs, samples: samples, prev: prev}, cands, len(samples), math.Inf(1))
	if err != nil || bi < 0 {
		t.Fatalf("oracle: winner %d, err %v", bi, err)
	}
	return cands[bi], cost
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
// and the work within its bound.
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
	if rng.Intn(4) != 0 {
		clear(l2.prevGamma)
		for range unitsL2 {
			l2.prevGamma[rng.Intn(p)] += QuantumL2
		}
	}
	prev := slices.Clone(l2.prevGamma)
	for d := 0; d < decisions; d++ {
		obs := randomL2Observation(rng, p)
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
		a, s := countOn(obs.Available), l2.nSamples
		if dec.Explored != (unitsL2+1)*a*s+s*len(l2.ties) || len(l2.ties) > maxNearTiesL2 {
			t.Fatalf("%d modules: explored %d with %d near ties, want 11·%d·%d + %d·ties", p, dec.Explored, len(l2.ties), a, s, s)
		}
		copy(prev, wantGamma)
	}
}

// TestL2MatchesEnumerationOracle: at 1-6 modules, where the near ties can
// never reach their cap, the dynamic program picks the allocation full
// enumeration picks, at the same cost, bit for bit — over piecewise-constant
// J̃ (some shared between modules, so exact ties are common), masks, bands
// and previous allocations.
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

// TestL2ExactAboveSixModules: past the size where the near-tie cap covers
// the whole simplex, the dynamic program still equals full enumeration when
// ties are rare (7-9 modules, a J̃ of its own per module); and where they are
// not — 64 modules of flat cost, three share-carrying ones down, so every
// placement of their three quanta ties — it stops at the cap with an
// allocation within the rounding margin of the optimum.
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
	down := 0
	for i := range obs.Available {
		obs.Available[i] = true
		if l2.prevGamma[i] > 0 && down < 3 {
			obs.Available[i] = false
			down++
		}
	}
	dec, err := l2.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.ties) != maxNearTiesL2 {
		t.Fatalf("flat cost: %d near ties, want the cap %d", len(l2.ties), maxNearTiesL2)
	}
	if want := (unitsL2+1)*(p-3)*3 + 3*maxNearTiesL2; dec.Explored != want {
		t.Fatalf("flat cost: explored %d, want %d", dec.Explored, want)
	}
	units := 0
	for i, g := range dec.Gamma {
		if !obs.Available[i] && g != 0 {
			t.Fatalf("module %d is down and got γ %v", i, g)
		}
		units += int(math.Round(g / QuantumL2))
	}
	recs := rec.Window(nil, 0)
	cost, optimum := recs[len(recs)-p-1].Cost, l2.suf[unitsL2]
	// At most the decision's margin: every |J̃| is 1 and every δ term at
	// most DeltaWeight, so B ≤ p·(1 + DeltaWeight).
	margin := float64(3*p+p+2) * float64(p) * (1 + DeltaWeight) * 0x1p-50
	if units != unitsL2 || math.Abs(cost-optimum) > margin {
		t.Fatalf("flat cost: γ %v (%d quanta) at cost %v, optimum %v ± %v", dec.Gamma, units, cost, optimum, margin)
	}
}

// TestL2ExploredLinearInModules is L2's half of the §4.3 overhead claim:
// a decision explores exactly 11·A·S priced terms plus S per near tie, so
// its work grows linearly in modules — at 8, 16, 32 and 64 modules no
// decision explores more per module than the most a 4-module one does.
// Explored counts are deterministic, so the bound cannot flake.
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
			if want := (unitsL2+1)*countOn(avail)*3 + 3*len(l2.ties); dec.Explored != want {
				t.Fatalf("%d modules, decision %d: explored %d, want 11·A·S + S·ties = %d", p, d, dec.Explored, want)
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
