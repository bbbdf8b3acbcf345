package llc

// Searcher reuse pins: a Searcher driven across many decisions must answer
// exactly like a fresh search per call, and its warm steady-state decide
// must not allocate (the zero-allocation half of the §4.3 overhead story).

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// reusedVsFresh drives one Searcher and per-call fresh searches over the
// same decision sequence and requires identical results.
func TestSearcherReuseMatchesFreshSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, opt := range []Options{
		{},
		{NonNegativeCosts: true},
	} {
		m := scalarModel{target: 5, inputs: []int{-2, -1, 0, 1, 2}, inputWeight: 0.01}
		sr, err := NewSearcher[float64, int](m, opt)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 120; d++ {
			// Vary the horizon occasionally so buffer regrowth is covered.
			h := 2 + d%2
			envs := make([]([]Env), h)
			for q := range envs {
				w := math.Round(rng.Float64()*4 - 2)
				envs[q] = []Env{{w - 1}, {w}, {w + 1}}
			}
			x0 := rng.Float64()*20 - 10
			got, err := sr.Exhaustive(x0, envs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Exhaustive[float64, int](m, x0, envs, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost || got.Feasible != want.Feasible {
				t.Fatalf("decision %d (opt %+v): cost/feasible %v/%v, want %v/%v",
					d, opt, got.Cost, got.Feasible, want.Cost, want.Feasible)
			}
			for i := range want.Inputs {
				if got.Inputs[i] != want.Inputs[i] {
					t.Fatalf("decision %d (opt %+v): inputs %v, want %v", d, opt, got.Inputs, want.Inputs)
				}
			}
			if got.Explored != want.Explored {
				t.Fatalf("decision %d (opt %+v): explored %d, want %d", d, opt, got.Explored, want.Explored)
			}
		}
	}
}

// TestSearcherWarmDecideZeroAlloc pins a warm Searcher decide
// at zero allocations per call: the walk buffers, candidate cursors and
// result slices are all reused.
func TestSearcherWarmDecideZeroAlloc(t *testing.T) {
	m := scalarModel{target: 5, inputs: []int{-2, -1, 0, 1, 2}, inputWeight: 0.01}
	sr, err := NewSearcher[float64, int](m, Options{NonNegativeCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]([]Env), 3)
	store := make([]Env, 9)
	backing := make([]float64, 9)
	for q := range envs {
		for s := 0; s < 3; s++ {
			store[q*3+s] = backing[q*3+s : q*3+s+1]
		}
		envs[q] = store[q*3 : q*3+3]
	}
	setEnvs := func(d int) {
		for q := 0; q < 3; q++ {
			w := math.Round(3 * math.Sin(float64(d)/7))
			backing[q*3] = w - 1
			backing[q*3+1] = w
			backing[q*3+2] = w + 1
		}
	}
	// Warm up: buffer growth happens on the first calls.
	for d := 0; d < 10; d++ {
		setEnvs(d)
		if _, err := sr.Exhaustive(float64(d%7), envs); err != nil {
			t.Fatal(err)
		}
	}
	d := 0
	allocs := testing.AllocsPerRun(200, func() {
		setEnvs(d)
		d++
		if _, err := sr.Exhaustive(float64(d%7), envs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Searcher.Exhaustive allocated %v/op, want 0", allocs)
	}
}

// TestSearcherBudget pins the decision budget at its one way in: a warm
// Searcher under SetMaxExplored(n) trips with ErrBudget iff the unbudgeted
// search explores more than n states, the trip repeats identically, a
// budget the search fits in changes nothing, and lifting the budget
// restores the unbudgeted decision.
func TestSearcherBudget(t *testing.T) {
	m := scalarModel{target: 5, inputs: []int{-2, -1, 0, 1, 2}, inputWeight: 0.01}
	envs := make([]([]Env), 3)
	for q := range envs {
		envs[q] = []Env{{-1}, {0}, {1}}
	}
	const warm, x0 = 2.0, -3.0
	for _, opt := range []Options{{}, {NonNegativeCosts: true}} {
		want, err := Exhaustive[float64, int](m, x0, envs, opt)
		if err != nil {
			t.Fatal(err)
		}
		e := want.Explored
		same := func(label string, got Result[float64, int]) {
			t.Helper()
			if got.Cost != want.Cost || got.Explored != e || got.Feasible != want.Feasible ||
				!slices.Equal(got.Inputs, want.Inputs) || !slices.Equal(got.States, want.States) {
				t.Errorf("%s (opt %+v): %+v, want %+v", label, opt, got, want)
			}
		}
		for _, n := range []int{1, e / 2, e - 1, e, e + 1, -1} {
			sr, err := NewSearcher[float64, int](m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sr.Exhaustive(warm, envs); err != nil {
				t.Fatal(err)
			}
			sr.SetMaxExplored(n)
			trips := n > 0 && e > n
			for run := 0; run < 2; run++ {
				got, err := sr.Exhaustive(x0, envs)
				switch {
				case trips && !errors.Is(err, ErrBudget):
					t.Errorf("budget %d of %d (opt %+v) run %d: err %v, want ErrBudget", n, e, opt, run, err)
				case !trips && err != nil:
					t.Errorf("budget %d of %d (opt %+v) run %d: %v", n, e, opt, run, err)
				case !trips:
					same("within budget", got)
				}
			}
			sr.SetMaxExplored(0)
			got, err := sr.Exhaustive(x0, envs)
			if err != nil {
				t.Fatalf("budget %d lifted (opt %+v): %v", n, opt, err)
			}
			same("budget lifted", got)
		}
	}
}
