package controller

// The exhaustive L1, kept as the reference the min-plus program is compared
// against: every candidate on/off vector of the historical generator, times
// every composition of the quanta over its computers, each priced from
// Decide's contract — probes straight through GMap.Evaluate, no memo, no
// tables — and the first optimum of every suffix of the fold taken.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hierctl/internal/approx"
)

// l1Oracle prices (α, u) pairs for one decision: the controller's
// configuration, maps and previous on/off vector, and the observation.
type l1Oracle struct {
	cfg       L1Config
	gmaps     []*GMap
	prevAlpha []bool
	obs       L1Observation
	samples   []float64
	terms     map[[3]int]float64 // by (j, u, S), S = -1 for a booting term
}

func newL1Oracle(cfg L1Config, gmaps []*GMap, prevAlpha []bool, obs L1Observation) *l1Oracle {
	var buf [3]float64
	lam := math.Max(0, obs.LambdaHat)
	return &l1Oracle{cfg: cfg, gmaps: gmaps, prevAlpha: slices.Clone(prevAlpha), obs: obs,
		samples: slices.Clone(bandSamples(&buf, lam, obs.Delta, cfg.UncertaintySamples)),
		terms:   map[[3]int]float64{}}
}

// term is computer j's band-sample mean cost at u quanta, staying at
// serving share S or booting.
func (o *l1Oracle) term(t *testing.T, j, u, S int, staying bool) float64 {
	t.Helper()
	if !staying {
		S = -1
	}
	key := [3]int{j, u, S}
	if c, ok := o.terms[key]; ok {
		return c
	}
	g, q, chat := o.gmaps[j], o.obs.QueueLens[j], o.obs.CHat
	gam := float64(u) * o.cfg.Quantum
	sum := 0.0
	for _, lam := range o.samples {
		stab := 0.0
		if util := gam * lam * chat / g.Spec().SpeedFactor; util > StabilityUtil {
			stab = 1e4 * (util - StabilityUtil)
		}
		if !staying {
			c2, _, _, _, err := g.Evaluate(q, gam*lam, chat)
			if err != nil {
				t.Fatal(err)
			}
			sum += g.Spec().Power.Base + c2 + stab
			continue
		}
		share := 0.0
		if S > 0 {
			share = float64(u) / float64(S)
		}
		c1, qEnd, _, _, err := g.Evaluate(q, share*lam, chat)
		if err != nil {
			t.Fatal(err)
		}
		c2, _, _, _, err := g.Evaluate(qEnd, gam*lam, chat)
		if err != nil {
			t.Fatal(err)
		}
		sum += c1 + c2 + stab
	}
	o.terms[key] = sum / float64(len(o.samples))
	return o.terms[key]
}

// price returns the cost of on/off vector alpha with units[j] quanta on
// computer j, and its tie key: (cost, S, V_1, u_1, V_2, u_2, …) over the
// fold's positions — staying computers, then booting ones — with V_i the
// fold of positions i.. onto W·boots. The lexicographically least key is
// the optimum whose every suffix is the first optimum of its own.
func (o *l1Oracle) price(t *testing.T, alpha []bool, units []int) (float64, []float64) {
	t.Helper()
	var order []int
	S, boots := 0, 0
	for _, staying := range []bool{true, false} {
		for j, on := range alpha {
			if on && o.prevAlpha[j] == staying {
				order = append(order, j)
				if staying {
					S += units[j]
				} else {
					boots++
				}
			}
		}
	}
	v := float64(boots) * o.cfg.SwitchWeight
	suffix := make([]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		j := order[i]
		v = o.term(t, j, units[j], S, o.prevAlpha[j]) + v
		suffix[i] = v
	}
	cost := v
	if S == 0 {
		stranded := 0.0
		for _, lam := range o.samples {
			stranded += lam * o.cfg.PeriodSeconds
		}
		cost += stranded / float64(len(o.samples))
	}
	key := []float64{cost, float64(S)}
	for i, j := range order {
		key = append(key, suffix[i], float64(units[j]))
	}
	return cost, key
}

// decide enumerates every composition of the quanta over each candidate
// vector and returns the winner: the least key within a vector, and across
// vectors, in candidate order, the first strictly cheapest.
func (o *l1Oracle) decide(t *testing.T, l *L1) ([]bool, []int, float64) {
	t.Helper()
	total := int(math.Round(1 / o.cfg.Quantum))
	var bestAlpha []bool
	var bestUnits []int
	bestCost := math.Inf(1)
	for _, alpha := range alphaCandidatesLegacy(l, o.prevAlpha, o.obs.Available) {
		var on []int
		for j, a := range alpha {
			if a {
				on = append(on, j)
			}
		}
		units := make([]int, len(alpha))
		var maskUnits []int
		var maskKey []float64
		var rec func(k, left int)
		rec = func(k, left int) {
			if k == len(on)-1 {
				units[on[k]] = left
				if _, key := o.price(t, alpha, units); maskKey == nil || slices.Compare(key, maskKey) < 0 {
					maskKey, maskUnits = key, slices.Clone(units)
				}
				return
			}
			for u := 0; u <= left; u++ {
				units[on[k]] = u
				rec(k+1, left-u)
			}
		}
		rec(0, total)
		if maskKey[0] < bestCost {
			bestAlpha, bestUnits, bestCost = alpha, maskUnits, maskKey[0]
		}
	}
	return bestAlpha, bestUnits, bestCost
}

// randomGMap is a map over a 4 × 5 × 3 grid holding random cells: costs
// from a coarse pool, so that terms and whole splits tie exactly, or
// Gaussian draws, some negative; end queues anywhere on the queue axis.
func randomGMap(t *testing.T, rng *rand.Rand, spec randomMapSpec) *GMap {
	t.Helper()
	cfg := GMapConfig{QMax: 60, QStep: 20, LambdaMax: 60, LambdaStep: 15, CMin: 0.014, CMax: 0.022, CStep: 0.004, SubSteps: 1}
	quant, err := approx.NewQuantizer([]float64{0, 0, cfg.CMin}, []float64{cfg.QMax, cfg.LambdaMax, cfg.CMax}, []float64{cfg.QStep, cfg.LambdaStep, cfg.CStep})
	if err != nil {
		t.Fatal(err)
	}
	table, err := approx.NewTable(quant, gColWidth)
	if err != nil {
		t.Fatal(err)
	}
	pool := []float64{0, 0.5, 1, 1, 2, 3}
	levels := [][]float64{quant.Levels(0), quant.Levels(1), quant.Levels(2)}
	err = approx.Grid(levels, func(p []float64) error {
		cost := pool[rng.Intn(len(pool))]
		if !spec.coarse && rng.Intn(3) == 0 {
			cost = 2 * rng.NormFloat64()
		}
		qEnd := cfg.QMax * rng.Float64()
		if rng.Intn(2) == 0 {
			qEnd = cfg.QStep * float64(rng.Intn(4))
		}
		return table.Add(p, []float64{cost, qEnd, 0, 0})
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := ctrlSpec("oracle")
	cs.SpeedFactor = spec.speed
	cs.Power.Base = spec.base
	return &GMap{table: table, cfg: cfg, spec: cs}
}

// randomMapSpec shapes one random map: the computer's speed and base power, and
// whether its costs all come from the coarse pool.
type randomMapSpec struct {
	speed, base float64
	coarse      bool
}

// TestL1MatchesEnumerationOracle: at 1-5 computers the program picks the
// on/off vector and split exhaustive enumeration picks, at the same cost,
// bit for bit — over random maps (some shared between computers, many
// with coarse costs, so exact ties are common), availability, minimum
// on-counts, quanta and previous on/off vectors, with the stability penalty
// and the stranded-work penalty in reach.
//
//hpm:pin search
func TestL1MatchesEnumerationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, tc := range []struct{ m, trials int }{{1, 40}, {2, 120}, {3, 80}, {4, 30}, {5, 12}} {
		for trial := 0; trial < tc.trials; trial++ {
			shapes := make([]*GMap, 1+rng.Intn(tc.m))
			for k := range shapes {
				shapes[k] = randomGMap(t, rng, randomMapSpec{
					speed:  []float64{0.75, 1, 1.5}[rng.Intn(3)],
					base:   []float64{0, 0.5, 1}[rng.Intn(3)],
					coarse: rng.Intn(2) == 0,
				})
			}
			gmaps := make([]*GMap, tc.m)
			for j := range gmaps {
				gmaps[j] = shapes[rng.Intn(len(shapes))]
			}
			cfg := DefaultL1Config()
			cfg.MinOn = 1 + rng.Intn(min(tc.m, 3))
			cfg.UncertaintySamples = rng.Intn(4) != 0
			cfg.SwitchWeight = []float64{0, 1, 8}[rng.Intn(3)]
			if rng.Intn(4) == 0 {
				cfg.Quantum = []float64{0.25, 0.2, 0.1}[rng.Intn(3)]
			}
			checkL1AgainstOracle(t, rng, cfg, gmaps, 3)
		}
	}
}

// checkL1AgainstOracle runs decisions on a fresh L1 from a random previous
// on/off vector and requires each α, γ and its cost to be bit-equal to
// the oracle's, and the probes within the closed-form bound.
func checkL1AgainstOracle(t *testing.T, rng *rand.Rand, cfg L1Config, gmaps []*GMap, decisions int) {
	t.Helper()
	m := len(gmaps)
	l1, err := NewL1(cfg, gmaps)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]bool, m)
	for j := range prev {
		prev[j] = rng.Intn(3) > 0
	}
	for d := 0; d < decisions; d++ {
		obs := L1Observation{
			QueueLens: make([]float64, m),
			On:        prev,
			LambdaHat: math.Round(90 * rng.Float64()),
			CHat:      0.014 + 0.008*rng.Float64(),
			Available: make([]bool, m),
		}
		if rng.Intn(3) > 0 {
			obs.Delta = math.Round(25 * rng.Float64())
		}
		for j := range obs.QueueLens {
			obs.QueueLens[j] = float64(rng.Intn(70))
			obs.Available[j] = rng.Intn(5) > 0
		}
		obs.Available[rng.Intn(m)] = true
		o := newL1Oracle(cfg, gmaps, prev, obs)
		wantAlpha, wantUnits, wantCost := o.decide(t, l1)
		dec, err := l1.Decide(new(Scratch), obs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantAlpha {
			want := float64(wantUnits[j]) * cfg.Quantum
			if dec.Alpha[j] != wantAlpha[j] || math.Float64bits(dec.Gamma[j]) != math.Float64bits(want) {
				t.Fatalf("%d computers, decision %d: α %v γ %v, enumeration α %v units %v (obs %+v, prev %v)",
					m, d, dec.Alpha, dec.Gamma, wantAlpha, wantUnits, obs, o.prevAlpha)
			}
		}
		if math.Float64bits(dec.Cost) != math.Float64bits(wantCost) {
			t.Fatalf("%d computers, decision %d: cost %v, enumeration %v", m, d, dec.Cost, wantCost)
		}
		if bound := exploredBoundL1(gmaps); dec.Explored < 1 || dec.Explored > bound {
			t.Fatalf("%d computers: %d probes, want within [1, %d]", m, dec.Explored, bound)
		}
		prev = dec.Alpha
	}
}

// exploredBoundL1 is the closed form of an L1 decision's probes: each
// computer probes each (queue, arrival-rate) cell of its map at most once,
// ĉ fixing the third coordinate, so a decision makes at most Σ_j Q_j·Λ_j.
func exploredBoundL1(gmaps []*GMap) int {
	n := 0
	for _, g := range gmaps {
		n += g.levels(0) * g.levels(1)
	}
	return n
}

// TestL1ExploredLinearInModules is L1's half of the §4.3 overhead claim: a
// decision's probes are at most Σ_j Q_j·Λ_j (exploredBoundL1), and a
// computer's probes depend on its own queue, map and previous state and on
// which (u, S) pairs the masks can read, so identical computers in the same
// state probe alike: all on, m of them probe exactly m times what one does,
// and half on, from four computers up (where two staying computers can
// share a mask with a booting one), m/4 times what four do. Probe counts
// are deterministic, so the pins cannot flake.
//
//hpm:pin search
func TestL1ExploredLinearInModules(t *testing.T) {
	g := testGMap(t, ctrlSpec("linear"))
	per := g.levels(0) * g.levels(1)
	for _, obs := range []L1Observation{
		{LambdaHat: 40, Delta: 10, CHat: 0.0175},
		{LambdaHat: 160, Delta: 30, CHat: 0.0175},
	} {
		one, quad := 0, 0
		for _, m := range []int{1, 2, 4, 8, 16, 32, 64} {
			gmaps := make([]*GMap, m)
			for j := range gmaps {
				gmaps[j] = g
			}
			l1, err := NewL1(DefaultL1Config(), gmaps)
			if err != nil {
				t.Fatal(err)
			}
			o := obs
			o.QueueLens = make([]float64, m)
			for j := range o.QueueLens {
				o.QueueLens[j] = 30
			}
			dec, err := l1.Decide(new(Scratch), o)
			if err != nil {
				t.Fatal(err)
			}
			if m == 1 {
				one = dec.Explored
			}
			if dec.Explored != m*one || dec.Explored > m*per {
				t.Fatalf("λ̂ %v, %d computers all on: %d probes, want %d·%d and at most %d·%d", o.LambdaHat, m, dec.Explored, m, one, m, per)
			}
			// Half the module was off: the staying half prices every
			// serving share, the booting half one term per split.
			o.On = make([]bool, m)
			for j := range o.On {
				o.On[j] = j%2 == 0
			}
			mixed, err := l1.Decide(new(Scratch), o)
			if err != nil {
				t.Fatal(err)
			}
			if m == 4 {
				quad = mixed.Explored
			}
			if m >= 4 && mixed.Explored != m/4*quad || mixed.Explored > m*per {
				t.Fatalf("λ̂ %v, %d computers half on: %d probes, want %d·%d and at most %d·%d", o.LambdaHat, m, mixed.Explored, m/4, quad, m, per)
			}
			t.Logf("λ̂ %v, %d computers: %d probes all on, %d half on (bound %d)", o.LambdaHat, m, dec.Explored, mixed.Explored, m*per)
		}
	}
}
