package engine_test

import (
	"reflect"
	"testing"

	"hierctl/internal/baseline"
	"hierctl/internal/cluster"
	"hierctl/internal/des"
	"hierctl/internal/engine"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// farm builds a two-cluster L3 arrangement: cluster A under heavy load,
// cluster B under light load, threshold policies on both, a shared budget
// of 5 operational computers (of 8), reallocated every 240 s.
func farm(t *testing.T) (*engine.MultiCluster, []func() *baseline.Result) {
	t.Helper()
	loads := []float64{240, 20}
	names := []string{"A", "B"}
	members := make([]engine.Member, 2)
	finals := make([]func() *baseline.Result, 2)
	for idx := range members {
		module, err := cluster.StandardModule("M1", "c")
		if err != nil {
			t.Fatal(err)
		}
		spec := cluster.Spec{Modules: []cluster.ModuleSpec{module}}
		trace := series.New(0, 60, 24)
		for i := range trace.Values {
			trace.Values[i] = loads[idx]
		}
		store, err := workload.NewStore(des.NewStream(int64(idx+1), "store"), workload.DefaultStoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		pol, err := baseline.NewThreshold(0.35, 0.8, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseline.DefaultRunnerConfig()
		cfg.Seed = int64(idx + 1)
		h, finalize, err := baseline.PrepareEngine(spec, pol, trace, store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		members[idx] = engine.Member{Name: names[idx], Harness: h, Trace: trace}
		finals[idx] = finalize
	}
	mc, err := engine.NewMultiCluster(members, engine.ProportionalShare{}, 5, 240)
	if err != nil {
		t.Fatal(err)
	}
	return mc, finals
}

// TestMultiClusterReallocatesTowardLoad drives two clusters under one
// shared clock and checks the L3 layer's contract: boundaries fire on
// schedule, the budget split follows the observed arrivals, and the
// starved cluster's provisioning is actually capped.
func TestMultiClusterReallocatesTowardLoad(t *testing.T) {
	mc, finals := farm(t)
	if err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	if err := mc.Run(); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
	events := mc.Events()
	// 24 bins × 60 s = 1440 s of trace; boundaries every 240 s with the
	// final one coinciding with the end of the run (all members Done).
	if len(events) != 5 {
		t.Fatalf("got %d L3 events, want 5: %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.Time != float64(ev.Round)*240 {
			t.Errorf("round %d at time %v, want %v", ev.Round, ev.Time, float64(ev.Round)*240)
		}
		sum := 0
		for _, b := range ev.Budgets {
			if b < 1 {
				t.Errorf("round %d: budget %v includes a starved cluster", ev.Round, ev.Budgets)
			}
			sum += b
		}
		if sum != 5 {
			t.Errorf("round %d: budgets %v sum to %d, want the full 5", ev.Round, ev.Budgets, sum)
		}
		if ev.Arrived[0] <= ev.Arrived[1] {
			t.Errorf("round %d: window arrivals %v, want cluster A heavier", ev.Round, ev.Arrived)
		}
		if ev.Budgets[0] <= ev.Budgets[1] {
			t.Errorf("round %d: budgets %v, want the heavy cluster favoured", ev.Round, ev.Budgets)
		}
	}

	resA := finals[0]()
	resB := finals[1]()
	if resA.Completed == 0 || resB.Completed == 0 {
		t.Fatalf("completions A=%d B=%d, want both > 0", resA.Completed, resB.Completed)
	}
	// The light cluster's cap binds after the first boundary: its last
	// adaptation decisions may keep at most its final budget operational.
	lastBudgetB := events[len(events)-1].Budgets[1]
	vals := resB.Operational.Values
	if len(vals) == 0 {
		t.Fatal("cluster B recorded no adaptation periods")
	}
	if got := vals[len(vals)-1]; got > float64(lastBudgetB) {
		t.Errorf("cluster B ends with %v operational, above its budget %d", got, lastBudgetB)
	}
}

// TestMultiClusterDeterministic pins the shared-clock merge: two identical
// arrangements produce identical reallocation histories and results.
func TestMultiClusterDeterministic(t *testing.T) {
	mc1, finals1 := farm(t)
	if err := mc1.Run(); err != nil {
		t.Fatal(err)
	}
	mc2, finals2 := farm(t)
	if err := mc2.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mc1.Events(), mc2.Events()) {
		t.Errorf("reallocation histories diverge:\n%+v\n%+v", mc1.Events(), mc2.Events())
	}
	for idx := range finals1 {
		r1 := finals1[idx]()
		r2 := finals2[idx]()
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("cluster %d results diverge:\n%+v\n%+v", idx, r1, r2)
		}
	}
}

// TestProportionalShareAllocate pins the reference L3 policy's arithmetic:
// floors, proportionality, caps, exhausted members, and determinism.
func TestProportionalShareAllocate(t *testing.T) {
	p := engine.ProportionalShare{}
	cases := []struct {
		name   string
		budget int
		obs    []engine.L3Obs
		want   []int
	}{
		{
			name:   "proportional split",
			budget: 6,
			obs: []engine.L3Obs{
				{Arrived: 300, Computers: 4},
				{Arrived: 100, Computers: 4},
			},
			want: []int{4, 2}, // floors 1+1, extras 4 split 3:1
		},
		{
			name:   "cap at cluster size",
			budget: 10,
			obs: []engine.L3Obs{
				{Arrived: 1000, Computers: 4},
				{Arrived: 1, Computers: 4},
			},
			want: []int{4, 4}, // heavy saturates, leftover flows to light; 2 unassignable
		},
		{
			name:   "no load splits evenly",
			budget: 4,
			obs: []engine.L3Obs{
				{Arrived: 0, Computers: 4},
				{Arrived: 0, Computers: 4},
			},
			want: []int{2, 2},
		},
		{
			name:   "done cluster releases its share",
			budget: 5,
			obs: []engine.L3Obs{
				{Arrived: 100, Computers: 4},
				{Arrived: 100, Computers: 4, Done: true},
			},
			want: []int{4, 0},
		},
		{
			name:   "budget below floors",
			budget: 1,
			obs: []engine.L3Obs{
				{Arrived: 10, Computers: 4},
				{Arrived: 10, Computers: 4},
			},
			want: []int{1, 0}, // index order when the budget cannot cover floors
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := p.Allocate(1, tc.budget, tc.obs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Allocate(%d, %+v) = %v, want %v", tc.budget, tc.obs, got, tc.want)
			}
		})
	}
}
