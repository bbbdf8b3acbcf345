package llc

import (
	"errors"
	"math"
	"testing"
)

// scalarModel is a toy switching hybrid system for tests: the state chases
// a target under integer inputs while disturbed by the environment.
//
//	x' = x + u − env[0]
//	J  = |x' − target| + inputWeight·|u|
type scalarModel struct {
	target      float64
	inputs      []int
	inputWeight float64
	feasibleMax float64 // states above this are infeasible; 0 = unbounded
}

func (m scalarModel) Step(x float64, u int, env Env) float64 { return x + float64(u) - env[0] }
func (m scalarModel) Cost(next float64, u int, env Env) float64 {
	return math.Abs(next-m.target) + m.inputWeight*math.Abs(float64(u))
}
func (m scalarModel) Feasible(x float64) bool {
	return m.feasibleMax == 0 || x <= m.feasibleMax
}
func (m scalarModel) Inputs(x float64) []int { return m.inputs }

var _ Model[float64, int] = scalarModel{}

func nominalEnvs(h int, w float64) []([]Env) {
	envs := make([]([]Env), h)
	for i := range envs {
		envs[i] = []Env{{w}}
	}
	return envs
}

func TestExhaustivePicksCostMinimizingInput(t *testing.T) {
	m := scalarModel{target: 5, inputs: []int{-1, 0, 1, 2}, inputWeight: 0.01}
	res, err := Exhaustive[float64, int](m, 0, nominalEnvs(3, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fastest approach to 5 within 3 steps: apply +2 every step.
	if res.Inputs[0] != 2 {
		t.Errorf("Inputs[0] = %d, want 2", res.Inputs[0])
	}
	if len(res.Inputs) != 3 || len(res.States) != 3 {
		t.Errorf("trajectory lengths = %d/%d, want 3/3", len(res.Inputs), len(res.States))
	}
	if !res.Feasible {
		t.Error("trajectory should be feasible")
	}
}

func TestExhaustiveExploredCount(t *testing.T) {
	m := scalarModel{target: 0, inputs: []int{-1, 0, 1}, inputWeight: 0}
	// One env sample per step: explored = Σ_{q=1..N} |U|^q = 3+9+27.
	res, err := Exhaustive[float64, int](m, 0, nominalEnvs(3, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + 9 + 27; res.Explored != want {
		t.Errorf("Explored = %d, want %d", res.Explored, want)
	}
	// With 3 samples per step, each expansion costs 3 evaluations plus
	// the recursion still follows only the nominal branch.
	envs := make([]([]Env), 2)
	for i := range envs {
		envs[i] = []Env{{-1}, {0}, {1}}
	}
	res, err = Exhaustive[float64, int](m, 0, envs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * (3 + 9); res.Explored != want {
		t.Errorf("Explored with samples = %d, want %d", res.Explored, want)
	}
}

func TestExhaustiveCompensatesForecastDisturbance(t *testing.T) {
	// Environment removes 2 per step; holding the set-point requires
	// u = +2 even though the state starts at the target.
	m := scalarModel{target: 0, inputs: []int{0, 1, 2}, inputWeight: 0.001}
	res, err := Exhaustive[float64, int](m, 0, nominalEnvs(2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inputs[0] != 2 {
		t.Errorf("Inputs[0] = %d, want 2 (compensate disturbance)", res.Inputs[0])
	}
}

func TestInfeasiblePenaltySteersAway(t *testing.T) {
	// Greedy cost favours +2 (overshoot then settle), but states above
	// 1.5 are infeasible, so the controller must go slowly.
	m := scalarModel{target: 10, inputs: []int{0, 1, 2}, inputWeight: 0, feasibleMax: 1.5}
	res, err := Exhaustive[float64, int](m, 0, nominalEnvs(2, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inputs[0] != 1 {
		t.Errorf("Inputs[0] = %d, want 1 (avoid infeasible region)", res.Inputs[0])
	}
	if !res.Feasible {
		t.Error("chosen trajectory should be feasible")
	}
}

func TestInfeasibleEverywhereStillDecides(t *testing.T) {
	m := scalarModel{target: 0, inputs: []int{1, 2}, inputWeight: 0, feasibleMax: -100}
	res, err := Exhaustive[float64, int](m, 0, nominalEnvs(1, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("Feasible = true, want false")
	}
	// Least-bad action: +1 lands closer to target.
	if res.Inputs[0] != 1 {
		t.Errorf("Inputs[0] = %d, want 1", res.Inputs[0])
	}
	if res.Cost < 1e12 {
		t.Errorf("Cost = %v, want penalty-dominated", res.Cost)
	}
}

func TestUncertaintySamplesChangeDecision(t *testing.T) {
	// Asymmetric-risk system: cost explodes when the state goes negative.
	// Nominal forecast says env=0 so u=0 holds x at 0 (cost 0); but the
	// uncertainty band includes env=+2 which would drive x' to −2. The
	// sampled expectation prefers the hedge u=1.
	m := asymmetricModel{}
	nominal := []([]Env){{{0}}}
	res, err := Exhaustive[float64, int](m, 0, nominal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inputs[0] != 0 {
		t.Fatalf("nominal decision = %d, want 0", res.Inputs[0])
	}
	banded := []([]Env){{{-2}, {0}, {2}}}
	res, err = Exhaustive[float64, int](m, 0, banded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inputs[0] != 1 {
		t.Errorf("banded decision = %d, want 1 (hedge against band)", res.Inputs[0])
	}
}

// asymmetricModel penalizes negative states 100× harder than positive ones.
type asymmetricModel struct{}

func (asymmetricModel) Step(x float64, u int, env Env) float64 { return x + float64(u) - env[0] }
func (asymmetricModel) Cost(next float64, u int, env Env) float64 {
	if next < 0 {
		return 100 * -next
	}
	return next
}
func (asymmetricModel) Feasible(float64) bool { return true }
func (asymmetricModel) Inputs(float64) []int  { return []int{0, 1} }

func TestErrorCases(t *testing.T) {
	m := scalarModel{inputs: []int{0}}
	if _, err := Exhaustive[float64, int](m, 0, nil, Options{}); err == nil {
		t.Error("empty horizon: want error")
	}
	if _, err := Exhaustive[float64, int](m, 0, []([]Env){{}}, Options{}); err == nil {
		t.Error("empty sample set: want error")
	}
	empty := scalarModel{inputs: nil}
	_, err := Exhaustive[float64, int](empty, 0, nominalEnvs(1, 0), Options{})
	if !errors.Is(err, ErrNoInputs) {
		t.Errorf("no inputs: err = %v, want ErrNoInputs", err)
	}
}

func TestLongerHorizonNeverWorseOnDeterministicModel(t *testing.T) {
	// On a deterministic model, per-step average cost with a longer
	// horizon should not be worse for reaching a fixed target.
	m := scalarModel{target: 4, inputs: []int{0, 1, 2}, inputWeight: 0}
	short, err := Exhaustive[float64, int](m, 0, nominalEnvs(1, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Exhaustive[float64, int](m, 0, nominalEnvs(3, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First action should be identical here (greedy +2), and the longer
	// horizon must see at least the short horizon's first-stage cost.
	if short.Inputs[0] != long.Inputs[0] {
		t.Errorf("first actions differ: %d vs %d", short.Inputs[0], long.Inputs[0])
	}
}

func TestWeightsCost(t *testing.T) {
	w := Weights{Q: 100, R: 1, S: 8}
	got := w.Cost(0.5, 2, 1)
	if want := 100*0.5 + 1*2 + 8*1; got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	// Absolute values are taken.
	if w.Cost(-0.5, -2, -1) != got {
		t.Error("Cost not symmetric in sign")
	}
	zero := Weights{}
	if zero.Cost(1, 1, 1) != 0 {
		t.Error("zero weights should cost 0")
	}
}

func TestSlack(t *testing.T) {
	if got := Slack(3, 4); got != 0 {
		t.Errorf("Slack(3,4) = %v, want 0", got)
	}
	if got := Slack(4, 4); got != 0 {
		t.Errorf("Slack(4,4) = %v, want 0", got)
	}
	if got := Slack(6.5, 4); got != 2.5 {
		t.Errorf("Slack(6.5,4) = %v, want 2.5", got)
	}
}

func TestStatesAlignWithInputs(t *testing.T) {
	m := scalarModel{target: 2, inputs: []int{0, 1}, inputWeight: 0}
	res, err := Exhaustive[float64, int](m, 0, nominalEnvs(3, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for q := range res.Inputs {
		x = m.Step(x, res.Inputs[q], Env{0})
		if res.States[q] != x {
			t.Errorf("States[%d] = %v, want %v", q, res.States[q], x)
		}
	}
}
