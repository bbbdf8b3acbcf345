package baseline

import (
	"math"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/des"
	"hierctl/internal/power"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

func testComputer(name string) cluster.ComputerSpec {
	return cluster.ComputerSpec{
		Name:             name,
		FrequenciesHz:    []float64{0.5e9, 1e9, 1.5e9, 2e9},
		SpeedFactor:      1,
		Power:            power.DefaultModel(),
		BootDelaySeconds: 120,
	}
}

func testSpec(n int) cluster.Spec {
	ms := cluster.ModuleSpec{Name: "M1"}
	for j := 0; j < n; j++ {
		ms.Computers = append(ms.Computers, testComputer("c"+string(rune('0'+j))))
	}
	return cluster.Spec{Modules: []cluster.ModuleSpec{ms}}
}

func testStore(t *testing.T) *workload.Store {
	t.Helper()
	cfg := workload.DefaultStoreConfig()
	cfg.Objects = 300
	cfg.PopularCount = 30
	s, err := workload.NewStore(des.NewStream(2, "store"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func steady(bins int, perBin float64) *series.Series {
	s := series.New(0, 30, bins)
	for i := range s.Values {
		s.Values[i] = perBin
	}
	return s
}

func TestPolicyDecisions(t *testing.T) {
	always := AlwaysOn{}
	a := always.Decide(Observation{Operational: 2, Total: 8})
	if a.Operational != 8 || a.PhiTarget != 0 {
		t.Errorf("AlwaysOn = %+v, want all on at full speed", a)
	}
	th, err := NewThreshold(0.3, 0.75, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := th.Decide(Observation{Operational: 2, Total: 4, Utilization: 0.9}); got.Operational != 3 {
		t.Errorf("high util: on = %d, want 3", got.Operational)
	}
	if got := th.Decide(Observation{Operational: 2, Total: 4, Utilization: 0.1}); got.Operational != 1 {
		t.Errorf("low util: on = %d, want 1", got.Operational)
	}
	if got := th.Decide(Observation{Operational: 1, Total: 4, Utilization: 0.1}); got.Operational != 1 {
		t.Errorf("min-on: on = %d, want 1", got.Operational)
	}
	if got := th.Decide(Observation{Operational: 4, Total: 4, Utilization: 0.99}); got.Operational != 4 {
		t.Errorf("saturated: on = %d, want 4", got.Operational)
	}
	dv, err := NewThresholdDVFS(0.3, 0.75, 1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if got := dv.Decide(Observation{Operational: 2, Total: 4, Utilization: 0.5}); got.PhiTarget != 0.8 {
		t.Errorf("DVFS PhiTarget = %v, want 0.8", got.PhiTarget)
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := NewThreshold(0.8, 0.3, 1); err == nil {
		t.Error("inverted watermarks: want error")
	}
	if _, err := NewThreshold(0.3, 1.5, 1); err == nil {
		t.Error("high >= 1: want error")
	}
	if _, err := NewThreshold(0.3, 0.8, 0); err == nil {
		t.Error("min-on 0: want error")
	}
	if _, err := NewThresholdDVFS(0.3, 0.8, 1, 1.5); err == nil {
		t.Error("bad util target: want error")
	}
}

func TestPhiFor(t *testing.T) {
	ladder := []float64{0.25, 0.5, 0.75, 1}
	// λ=20, c=0.02, speed=1 → util at φ: 0.4/φ. Target 0.9 → φ=0.5.
	if got := phiFor(ladder, 20, 0.02, 1, 0.9); got != 1 {
		t.Errorf("phiFor = %d, want index 1 (φ=0.5)", got)
	}
	// Unattainable: returns max.
	if got := phiFor(ladder, 1000, 0.02, 1, 0.9); got != 3 {
		t.Errorf("overload phiFor = %d, want 3", got)
	}
	// Target ≤ 0: full speed.
	if got := phiFor(ladder, 1, 0.02, 1, 0); got != 3 {
		t.Errorf("no-target phiFor = %d, want 3", got)
	}
}

func TestRunnerValidation(t *testing.T) {
	spec := testSpec(2)
	store := testStore(t)
	tr := steady(8, 100)
	cfg := DefaultRunnerConfig()
	if _, err := Run(spec, nil, tr, store, cfg); err == nil {
		t.Error("nil policy: want error")
	}
	if _, err := Run(spec, AlwaysOn{}, nil, store, cfg); err == nil {
		t.Error("nil trace: want error")
	}
	misaligned := series.New(0, 45, 8)
	for i := range misaligned.Values {
		misaligned.Values[i] = 10
	}
	if _, err := Run(spec, AlwaysOn{}, misaligned, store, cfg); err == nil {
		t.Error("misaligned trace: want error")
	}
}

func TestAlwaysOnServesEverything(t *testing.T) {
	spec := testSpec(4)
	tr := steady(40, 900) // 30 req/s
	res, err := Run(spec, AlwaysOn{}, tr, testStore(t), DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "always-on" {
		t.Errorf("Policy = %q", res.Policy)
	}
	total := int64(tr.Sum())
	if res.Completed < total*99/100 {
		t.Errorf("completed %d of %d", res.Completed, total)
	}
	if res.MeanResponse > 4 {
		t.Errorf("all-on mean response %v above 4 s at trivial load", res.MeanResponse)
	}
	// All computers stay on the whole time.
	if res.Operational.Min() != 4 {
		t.Errorf("operational min = %v, want 4", res.Operational.Min())
	}
}

func TestThresholdSavesEnergyVsAlwaysOn(t *testing.T) {
	spec := testSpec(4)
	tr := steady(60, 450) // 15 req/s — one computer suffices
	store := testStore(t)
	cfg := DefaultRunnerConfig()
	th, err := NewThreshold(0.35, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	resTh, err := Run(spec, th, tr, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := Run(spec, AlwaysOn{}, tr, testStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resTh.Energy >= resOn.Energy {
		t.Errorf("threshold energy %v not below always-on %v", resTh.Energy, resOn.Energy)
	}
	total := int64(tr.Sum())
	if resTh.Completed < total*95/100 {
		t.Errorf("threshold completed %d of %d", resTh.Completed, total)
	}
	// Low load → scaled down.
	if last := resTh.Operational.Values[resTh.Operational.Len()-1]; last > 2 {
		t.Errorf("threshold still running %v computers at 15 req/s", last)
	}
}

func TestThresholdDVFSSavesAtFixedMachineCount(t *testing.T) {
	// With the machine count pinned (MinOn = Total), frequency scaling
	// strictly shaves the dynamic φ² term. (At a floating machine count
	// DVFS can legitimately cost MORE than consolidation because the
	// base cost dominates — the coordination failure the paper's
	// hierarchical optimization addresses.)
	spec := testSpec(4)
	tr := steady(60, 900) // 30 req/s
	store := testStore(t)
	cfg := DefaultRunnerConfig()
	th, err := NewThreshold(0.35, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := NewThresholdDVFS(0.35, 0.8, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	resTh, err := Run(spec, th, tr, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resDv, err := Run(spec, dv, tr, testStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resDv.Energy >= resTh.Energy {
		t.Errorf("threshold+dvfs energy %v not below threshold %v at fixed count", resDv.Energy, resTh.Energy)
	}
}

func TestThresholdScalesWithStepLoad(t *testing.T) {
	spec := testSpec(4)
	tr := series.New(0, 30, 90)
	for i := range tr.Values {
		if i >= 30 && i < 60 {
			tr.Values[i] = 3600 // 120 req/s
		} else {
			tr.Values[i] = 150 // 5 req/s
		}
	}
	th, err := NewThreshold(0.35, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, th, tr, testStore(t), DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := res.Operational.Values
	n := len(ops)
	third := n / 3
	meanOf := func(lo, hi int) float64 {
		s := 0.0
		for _, v := range ops[lo:hi] {
			s += v
		}
		return s / float64(hi-lo)
	}
	low1 := meanOf(third/2, third)
	high := meanOf(third+1, 2*third)
	if high <= low1 {
		t.Errorf("threshold did not scale up: low %v, high %v", low1, high)
	}
	if math.IsNaN(res.MeanResponse) || res.MeanResponse <= 0 {
		t.Errorf("mean response = %v", res.MeanResponse)
	}
}
