package controller

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"hierctl/internal/llc"
)

// budgeted is one controller behind the two calls the budget contract is
// about: decide (step 0 warms the controller, step 1 is the probed
// decision) and SetMaxExplored.
type budgeted[D any] struct {
	decide func(step int) (D, error)
	setMax func(n int)
}

// checkBudget pins the decision budget for one engine: a warm controller
// under SetMaxExplored(n) trips with llc.ErrBudget iff the unbudgeted
// decision explores more than n states, the trip repeats identically, a
// budget the decision fits in changes nothing, and once the budget is
// lifted the tripped controller decides exactly as if it never had one.
func checkBudget[D any](t *testing.T, build func() budgeted[D], explored func(D) int) {
	t.Helper()
	ref := build()
	if _, err := ref.decide(0); err != nil {
		t.Fatal(err)
	}
	want, err := ref.decide(1)
	if err != nil {
		t.Fatal(err)
	}
	e := explored(want)
	if e < 4 {
		t.Fatalf("probe decision explored %d states; the table needs a real search", e)
	}
	for _, n := range []int{1, e / 2, e - 1, e, e + 1, -1} {
		c := build()
		if _, err := c.decide(0); err != nil {
			t.Fatal(err)
		}
		c.setMax(n)
		if n <= 0 || e <= n {
			got, err := c.decide(1)
			if err != nil {
				t.Errorf("budget %d of %d: %v", n, e, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d of %d: %+v, want %+v", n, e, got, want)
			}
			continue
		}
		for run := 0; run < 2; run++ {
			if _, err := c.decide(1); !errors.Is(err, llc.ErrBudget) {
				t.Errorf("budget %d of %d, run %d: err %v, want ErrBudget", n, e, run, err)
			}
		}
		c.setMax(0)
		got, err := c.decide(1)
		if err != nil {
			t.Fatalf("budget %d lifted: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d lifted: %+v, want %+v", n, got, want)
		}
	}
}

// TestL1Budget pins the decision budget (checkBudget) on a four-computer
// L1, whose budget counts map probes.
//
//hpm:pin search
func TestL1Budget(t *testing.T) {
	obs := []L1Observation{
		{QueueLens: []float64{0, 0, 0, 0}, LambdaHat: 20, CHat: 0.018},
		{QueueLens: []float64{5, 5, 5, 5}, LambdaHat: 60, Delta: 10, CHat: 0.018},
	}
	checkBudget(t, func() budgeted[L1Decision] {
		l1 := newTestL1(t, 4)
		var on []bool
		return budgeted[L1Decision]{
			decide: func(step int) (L1Decision, error) {
				o := obs[step]
				o.On = on
				d, err := l1.Decide(new(Scratch), o)
				if err == nil {
					on = slices.Clone(d.Alpha)
				}
				return d, err
			},
			setMax: l1.SetMaxExplored,
		}
	}, func(d L1Decision) int { return d.Explored })
}

// TestL2Budget pins the decision budget (checkBudget) on L2, whose budget
// counts priced J̃ terms.
//
//hpm:pin search
func TestL2Budget(t *testing.T) {
	chat := []float64{0.018, 0.018, 0.018, 0.018}
	obs := []L2Observation{
		{QAvg: []float64{0, 0, 0, 0}, LambdaHat: 100, CHat: chat},
		{QAvg: []float64{5, 10, 0, 20}, LambdaHat: 300, Delta: 20, CHat: chat},
	}
	checkBudget(t, func() budgeted[L2Decision] {
		l2, err := NewL2(DefaultL2Config(), []JTilde{
			convexLoadCost(100), convexLoadCost(120), convexLoadCost(140), convexLoadCost(160),
		})
		if err != nil {
			t.Fatal(err)
		}
		return budgeted[L2Decision]{
			decide: func(step int) (L2Decision, error) { return l2.Decide(new(Scratch), obs[step]) },
			setMax: l2.SetMaxExplored,
		}
	}, func(d L2Decision) int { return d.Explored })
}
