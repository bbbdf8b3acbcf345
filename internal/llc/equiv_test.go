package llc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// propModel is a randomized switching hybrid system with strictly positive,
// continuous stage costs (satisfying the NonNegativeCosts contract) whose
// cost surface is wrinkled by a sin term so that distinct trajectories
// essentially never collide in cost — the regime in which the branch-and-
// bound engine must be bit-identical to the naive recursive search.
type propModel struct {
	inputs      []int
	target      float64
	decay       float64
	costWeight  float64
	noiseWeight float64
	inputGain   float64
	feasibleMax float64 // 0 = unbounded
}

func (m propModel) Step(x float64, u int, env Env) float64 {
	return m.decay*x + m.inputGain*float64(u) - env[0]
}

func (m propModel) Cost(next float64, u int, env Env) float64 {
	return m.costWeight*math.Abs(next-m.target) +
		m.noiseWeight*(1.5+math.Sin(next*13.37+float64(u)*3.11+env[0]*0.71))
}

func (m propModel) Feasible(x float64) bool {
	return m.feasibleMax == 0 || x <= m.feasibleMax
}

func (m propModel) Inputs(float64) []int { return m.inputs }

var _ Model[float64, int] = propModel{}

func randomPropModel(rng *rand.Rand) propModel {
	n := 2 + rng.Intn(5)
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = rng.Intn(9) - 4
	}
	m := propModel{
		inputs:      inputs,
		target:      rng.Float64()*10 - 5,
		decay:       0.5 + rng.Float64()*0.5,
		costWeight:  0.1 + rng.Float64()*3,
		noiseWeight: rng.Float64() * 2,
		inputGain:   0.5 + rng.Float64()*1.5,
	}
	if rng.Intn(3) == 0 {
		m.feasibleMax = rng.Float64() * 4
	}
	return m
}

func randomEnvs(rng *rand.Rand) []([]Env) {
	horizon := 1 + rng.Intn(4)
	envs := make([]([]Env), horizon)
	for q := range envs {
		samples := 1 + rng.Intn(4)
		envs[q] = make([]Env, samples)
		for i := range envs[q] {
			envs[q][i] = Env{rng.Float64()*6 - 3}
		}
	}
	return envs
}

func assertSameDecision(t *testing.T, label string, want, got Result[float64, int]) {
	t.Helper()
	if len(want.Inputs) != len(got.Inputs) {
		t.Fatalf("%s: horizon %d vs %d", label, len(want.Inputs), len(got.Inputs))
	}
	for q := range want.Inputs {
		if want.Inputs[q] != got.Inputs[q] {
			t.Fatalf("%s: Inputs[%d] = %d, want %d", label, q, got.Inputs[q], want.Inputs[q])
		}
		if want.States[q] != got.States[q] {
			t.Fatalf("%s: States[%d] = %v, want %v", label, q, got.States[q], want.States[q])
		}
	}
	if want.Cost != got.Cost {
		t.Fatalf("%s: Cost = %v, want %v (bit-identical)", label, got.Cost, want.Cost)
	}
	if want.Feasible != got.Feasible {
		t.Fatalf("%s: Feasible = %v, want %v", label, got.Feasible, want.Feasible)
	}
}

// TestPrunedParallelBitIdenticalToNaiveExhaustive is the engine's pin:
// across randomized models, horizons and sample counts, the branch-and-
// bound engine (unpruned and pruned) returns the exact trajectory, cost and
// feasibility of the original recursive exhaustive search; without pruning
// it also reproduces its exact Explored count. (One search runs on one
// goroutine; "Parallel" survives in the name only because the test floor
// lists it.)
func TestPrunedParallelBitIdenticalToNaiveExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		m := randomPropModel(rng)
		envs := randomEnvs(rng)
		x0 := rng.Float64()*10 - 5

		ref, err := referenceExhaustive[float64, int](m, x0, envs, Options{})
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		naive, err := Exhaustive[float64, int](m, x0, envs, Options{})
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		assertSameDecision(t, "naive", ref, naive)
		if naive.Explored != ref.Explored {
			t.Fatalf("trial %d: naive Explored = %d, want %d", trial, naive.Explored, ref.Explored)
		}

		pruned, err := Exhaustive[float64, int](m, x0, envs, Options{NonNegativeCosts: true})
		if err != nil {
			t.Fatalf("trial %d: pruned: %v", trial, err)
		}
		assertSameDecision(t, "pruned", ref, pruned)
		if pruned.Explored > ref.Explored {
			t.Fatalf("trial %d: pruned Explored = %d exceeds naive %d", trial, pruned.Explored, ref.Explored)
		}
	}
}

// tablePricer prices candidate c under sample si at costs[c][si]. Finish
// adds extra[c]'s terms onto the mean one at a time, in order — the shape
// of L2's ‖Δγ‖ fold, whose rounding depends on that order.
type tablePricer struct {
	costs [][]float64
	extra [][]float64
}

func (p *tablePricer) Price(c, si int, sum float64) (float64, error) {
	return sum + p.costs[c][si], nil
}

func (p *tablePricer) Finish(c int, mean float64) float64 {
	for _, x := range p.extra[c] {
		mean += x
	}
	return mean
}

func (p *tablePricer) price(c, si int) float64 { return p.costs[c][si] }

// randomTable draws k candidates × n samples of non-negative costs. One
// trial in three draws small integers, so ties — which must never
// displace the incumbent — are common; one in two adds a per-candidate
// Finish addend of up to three terms.
func randomTable(rng *rand.Rand, k, n int) *tablePricer {
	p := &tablePricer{costs: make([][]float64, k), extra: make([][]float64, k)}
	ties := rng.Intn(3) == 0
	addend := rng.Intn(2) == 0
	for c := range p.costs {
		p.costs[c] = make([]float64, n)
		for si := range p.costs[c] {
			if ties {
				p.costs[c][si] = float64(rng.Intn(4))
			} else {
				p.costs[c][si] = rng.Float64() * 10
			}
		}
		if addend {
			p.extra[c] = make([]float64, rng.Intn(4))
			for i := range p.extra[c] {
				p.extra[c][i] = rng.Float64() * 0.3
			}
		}
	}
	return p
}

// TestPrunedParallelBitIdenticalToNaiveBounded is the same pin for the
// bounded neighbourhood search of the L1 and L2 controllers and the
// centralized baseline — OneStep over a caller-built candidate set —
// against the naive one-step loop: across randomized cost tables, sample
// counts, incoming incumbents and Finish addends it returns the same
// winner at a bit-identical cost, pruned or not, with the exact explored
// count when unpruned and no more when pruned. Under a budget it trips iff
// the count it would reach exceeds the budget, also when the count is
// carried across two calls the way L1's α loop carries it.
func TestPrunedParallelBitIdenticalToNaiveBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cands := []int{0, 1, 2, 3, 4, 5}
	for trial := 0; trial < 300; trial++ {
		k, n := 1+rng.Intn(6), 1+rng.Intn(4)
		p := randomTable(rng, k, n)
		incumbent := math.Inf(1)
		if rng.Intn(2) == 0 {
			incumbent = rng.Float64() * 8
		}
		wantIdx, wantCost, naive := referenceOneStep(cands[:k], n, incumbent, p.price, p.Finish)

		counts := map[bool]int{}
		for _, prune := range []bool{false, true} {
			sc := Scan{Prune: prune}
			idx, cost, err := OneStep(&sc, p, cands[:k], n, incumbent)
			if err != nil {
				t.Fatalf("trial %d (prune %v): %v", trial, prune, err)
			}
			if idx != wantIdx || math.Float64bits(cost) != math.Float64bits(wantCost) {
				t.Fatalf("trial %d (prune %v): (%d, %v), want (%d, %v)", trial, prune, idx, cost, wantIdx, wantCost)
			}
			if !prune && sc.Explored != naive {
				t.Fatalf("trial %d: unpruned explored %d, want %d", trial, sc.Explored, naive)
			}
			if prune && sc.Explored > naive {
				t.Fatalf("trial %d: pruned explored %d exceeds naive %d", trial, sc.Explored, naive)
			}
			counts[prune] = sc.Explored
		}

		// The same candidates in two calls, the incumbent and the Scan
		// carried between them: the same winner, the same count, and the
		// budget trips iff that count exceeds it.
		split := rng.Intn(k + 1)
		for _, prune := range []bool{false, true} {
			e := counts[prune]
			for _, budget := range []int{0, 1, e / 2, e - 1, e, e + 1} {
				sc := Scan{Prune: prune, MaxExplored: budget}
				idx, cost, err := OneStep(&sc, p, cands[:split], n, incumbent)
				if err == nil {
					var idx2 int
					if idx2, cost, err = OneStep(&sc, p, cands[split:k], n, cost); idx2 >= 0 {
						idx = split + idx2
					}
				}
				trips := budget > 0 && e > budget
				switch {
				case trips && !errors.Is(err, ErrBudget):
					t.Fatalf("trial %d (prune %v): budget %d of %d: err %v, want ErrBudget", trial, prune, budget, e, err)
				case !trips && err != nil:
					t.Fatalf("trial %d (prune %v): budget %d of %d: %v", trial, prune, budget, e, err)
				case !trips && (idx != wantIdx || math.Float64bits(cost) != math.Float64bits(wantCost) || sc.Explored != e):
					t.Fatalf("trial %d (prune %v) split at %d: (%d, %v, %d explored), want (%d, %v, %d)",
						trial, prune, split, idx, cost, sc.Explored, wantIdx, wantCost, e)
				}
			}
		}
	}
}

// TestPruningStrictlyReducesExplored asserts the §4.3 overhead win: on a
// configuration where an early candidate is optimal, branch-and-bound
// visits strictly fewer states than the naive search while returning the
// identical decision.
func TestPruningStrictlyReducesExplored(t *testing.T) {
	m := scalarModel{target: 0, inputs: []int{0, 10, -10}, inputWeight: 1}
	envs := nominalEnvs(3, 0)
	naive, err := Exhaustive[float64, int](m, 0, envs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + 9 + 27; naive.Explored != want {
		t.Fatalf("naive Explored = %d, want %d", naive.Explored, want)
	}
	pruned, err := Exhaustive[float64, int](m, 0, envs, Options{NonNegativeCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Explored >= naive.Explored {
		t.Errorf("pruned Explored = %d, want strictly below naive %d", pruned.Explored, naive.Explored)
	}
	if pruned.Inputs[0] != naive.Inputs[0] || pruned.Cost != naive.Cost {
		t.Errorf("pruned decision (%d, %v) diverged from naive (%d, %v)",
			pruned.Inputs[0], pruned.Cost, naive.Inputs[0], naive.Cost)
	}
}

// TestNominalSampleIsUpperMiddleForEvenCounts pins the documented nominal
// rule: the sample at index ⌊len/2⌋ drives the state recursion — the
// middle sample for odd counts, the upper of the two middle samples for
// even counts.
func TestNominalSampleIsUpperMiddleForEvenCounts(t *testing.T) {
	m := scalarModel{target: 0, inputs: []int{1}, inputWeight: 0}
	cases := []struct {
		samples []Env
		want    float64 // expected States[0] = x0 + u − nominal
	}{
		{[]Env{{0.5}}, 1 - 0.5},
		{[]Env{{-1}, {3}}, 1 - 3},            // even: upper of the two middles
		{[]Env{{-1}, {0.25}, {3}}, 1 - 0.25}, // odd: true middle
		{[]Env{{-2}, {-1}, {3}, {4}}, 1 - 3}, // even: index 2 of 4
	}
	for i, c := range cases {
		res, err := Exhaustive[float64, int](m, 0, []([]Env){c.samples}, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.States[0] != c.want {
			t.Errorf("case %d: nominal successor = %v, want %v", i, res.States[0], c.want)
		}
	}
}

// infSubtreeModel prices every trajectory through input 0 at +Inf and the
// rest finitely — the degenerate-branch case whose handling deliberately
// diverges from the historical recursive engine (see Options' doc).
type infSubtreeModel struct{}

func (infSubtreeModel) Step(x float64, u int, env Env) float64 { return x + float64(u) }
func (infSubtreeModel) Cost(next float64, u int, env Env) float64 {
	if u == 0 {
		return math.Inf(1)
	}
	return math.Abs(next)
}
func (infSubtreeModel) Feasible(float64) bool { return true }
func (infSubtreeModel) Inputs(float64) []int  { return []int{0, 1} }

// TestDegenerateSubtreeNoLongerAbortsSearch pins the documented
// divergence from the historical engine: an all-+Inf subtree is skipped
// rather than failing the whole search, and the error survives only when
// no finite-cost trajectory exists anywhere.
func TestDegenerateSubtreeNoLongerAbortsSearch(t *testing.T) {
	envs := nominalEnvs(2, 0)
	for _, opt := range []Options{{}, {NonNegativeCosts: true}} {
		res, err := Exhaustive[float64, int](infSubtreeModel{}, 0, envs, opt)
		if err != nil {
			t.Fatalf("%+v: %v (degenerate branch must not abort the search)", opt, err)
		}
		if res.Inputs[0] != 1 || math.IsInf(res.Cost, 1) {
			t.Errorf("%+v: decision (%d, %v), want the finite branch (1, finite)", opt, res.Inputs[0], res.Cost)
		}
	}
	// All-degenerate: the error remains.
	all := scalarModel{target: 0, inputs: []int{1}, inputWeight: math.Inf(1)}
	if _, err := Exhaustive[float64, int](all, 0, envs, Options{}); err == nil {
		t.Error("all-Inf search: want error")
	}
}
