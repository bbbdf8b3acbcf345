package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"hierctl/internal/approx"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/des"
	"hierctl/internal/power"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// fastConfig returns a configuration with coarse learning grids and a
// short horizon so integration tests stay fast while exercising the whole
// pipeline.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.L0.Horizon = 2
	cfg.GMap = controller.GMapConfig{
		QMax: 200, QStep: 25,
		LambdaMax: 150, LambdaStep: 15,
		CMin: 0.014, CMax: 0.022, CStep: 0.004,
		SubSteps: 2,
	}
	cfg.ModuleSim = controller.ModuleSimConfig{
		QLevels:      []float64{0, 50},
		LambdaLevels: []float64{0, 30, 60, 120, 200},
		CLevels:      []float64{0.018},
		Tree:         approx.TreeConfig{MaxDepth: 6, MinLeaf: 1},
	}
	cfg.DrainSeconds = 120
	return cfg
}

// testComputer returns a 4-point DVFS computer.
func testComputer(name string) cluster.ComputerSpec {
	return cluster.ComputerSpec{
		Name:             name,
		FrequenciesHz:    []float64{0.5e9, 1e9, 1.5e9, 2e9},
		SpeedFactor:      1,
		Power:            power.DefaultModel(),
		BootDelaySeconds: 120,
	}
}

func moduleOf(name string, n int) cluster.ModuleSpec {
	ms := cluster.ModuleSpec{Name: name}
	for j := 0; j < n; j++ {
		ms.Computers = append(ms.Computers, testComputer(name+"-c"+string(rune('0'+j))))
	}
	return ms
}

func testStore(t *testing.T) *workload.Store {
	t.Helper()
	cfg := workload.DefaultStoreConfig()
	cfg.Objects = 500
	cfg.PopularCount = 50
	s, err := workload.NewStore(des.NewStream(3, "store"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func steadyTrace(bins int, perBin float64) *series.Series {
	s := series.New(0, 30, bins)
	for i := range s.Values {
		s.Values[i] = perBin
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	cfg := fastConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("fast config: %v", err)
	}
	bad := cfg
	bad.DefaultCHat = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero default c-hat: want error")
	}
	bad = cfg
	bad.L1.PeriodSeconds = 45 // not a multiple of 30
	if err := bad.Validate(); err == nil {
		t.Error("misaligned T_L1: want error")
	}
	bad = cfg
	bad.L2.PeriodSeconds = 60 // below T_L1
	if err := bad.Validate(); err == nil {
		t.Error("T_L2 < T_L1: want error")
	}
}

func TestSingleModuleSteadyLoadMeetsTarget(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 900 requests per 30 s bin ≈ 30 req/s — well within one or two
	// computers' capacity.
	trace := steadyTrace(40, 900)
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed == 0 {
		t.Fatal("no requests completed")
	}
	total := int64(trace.Sum())
	if rec.Completed+rec.Dropped < total*95/100 {
		t.Errorf("completed %d of %d requests", rec.Completed, total)
	}
	if rec.Dropped != 0 {
		t.Errorf("dropped %d requests without failures", rec.Dropped)
	}
	if got := rec.MeanResponse(); got > rec.TargetResponse {
		t.Errorf("mean response %v above target %v", got, rec.TargetResponse)
	}
	if rec.ViolationFrac > 0.25 {
		t.Errorf("violation fraction %v too high for a steady load", rec.ViolationFrac)
	}
	if rec.Energy <= 0 {
		t.Error("no energy recorded")
	}
	// Steady 30 req/s should not need all four computers.
	if mean := rec.Operational.Mean(); mean >= 3.5 {
		t.Errorf("mean operational computers %v, want < 3.5 (energy saving)", mean)
	}
	if rec.L0Decisions == 0 || rec.L1Decisions == 0 {
		t.Error("controller decisions not recorded")
	}
	if rec.L2Decisions != 0 {
		t.Error("single-module run should not use L2")
	}
}

func TestStepLoadScalesUpAndDown(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 40 bins low (150/bin = 5 r/s), 40 bins high (3600/bin = 120 r/s),
	// then 40 bins low again.
	trace := series.New(0, 30, 120)
	for i := range trace.Values {
		if i >= 40 && i < 80 {
			trace.Values[i] = 3600
		} else {
			trace.Values[i] = 150
		}
	}
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Operational.Values
	if len(ops) < 25 {
		t.Fatalf("operational series too short: %d", len(ops))
	}
	// Compare mean operational computers across the three phases (L1
	// periods: 120 bins of 30 s = 30 L1 periods; phases of 10).
	phase := func(lo, hi int) float64 {
		sum := 0.0
		for _, v := range ops[lo:hi] {
			sum += v
		}
		return sum / float64(hi-lo)
	}
	n := len(ops)
	third := n / 3
	low1 := phase(third/2, third) // skip initial scale-down transient
	high := phase(third+2, 2*third)
	low2 := phase(2*third+2, n)
	if high <= low1 {
		t.Errorf("high-load phase %v not above first low phase %v", high, low1)
	}
	if low2 >= high {
		t.Errorf("final low phase %v not below high phase %v", low2, high)
	}
}

func TestMultiModuleClusterWithL2(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := steadyTrace(40, 1500) // 50 req/s across 4 computers
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if rec.L2Decisions == 0 {
		t.Fatal("L2 made no decisions")
	}
	if len(rec.GammaModules) != 2 {
		t.Fatalf("GammaModules has %d series, want 2", len(rec.GammaModules))
	}
	bins := rec.GammaModules[0].Len()
	if bins == 0 {
		t.Fatal("no γ_i samples recorded")
	}
	for b := 0; b < bins; b++ {
		sum := rec.GammaModules[0].Values[b] + rec.GammaModules[1].Values[b]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Σγ at bin %d = %v, want 1", b, sum)
		}
	}
	if rec.Completed == 0 {
		t.Error("no requests completed")
	}
	if got := rec.MeanResponse(); got > 2*rec.TargetResponse {
		t.Errorf("mean response %v far above target %v", got, rec.TargetResponse)
	}
}

// TestFailureInjectionRecovers fails computer (0,2) mid-run and repairs it
// near the end. At 60 req/s the L1 keeps that computer on (computers 0 and
// 1 it keeps off, so failing them changes nothing), so the failure shows in
// the record, and the module must still absorb the load.
func TestFailureInjectionRecovers(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := steadyTrace(60, 1800) // 60 req/s
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace, Failures: []workload.FailureEvent{
		{At: 600, Module: 0, Comp: 2},
		{At: 1500, Module: 0, Comp: 2, Repair: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed == healthy.Completed && rec.Energy == healthy.Energy &&
		rec.Switches == healthy.Switches && rec.MeanResponse() == healthy.MeanResponse() {
		t.Error("the failure changed nothing: the run equals the run without it")
	}
	total := int64(trace.Sum())
	// The failed computer drops its queue; the rest must absorb the load.
	if rec.Completed < total*9/10 {
		t.Errorf("completed %d of %d with one failure", rec.Completed, total)
	}
	if got := rec.MeanResponse(); got > 3*rec.TargetResponse {
		t.Errorf("mean response %v did not recover (target %v)", got, rec.TargetResponse)
	}
}

// panicJTilde is a module cost approximation whose every prediction
// panics, so each L2 search does.
type panicJTilde struct{}

func (panicJTilde) Predict(qAvg, lambda, c float64) (float64, error) {
	panic("injected J̃ fault")
}

// TestPanicFallbackTwoModules pins the panic legs of the degraded path on
// a two-module run: an L2 whose search always panics holds the split in
// force, an L1 panic on module 0 falls back to the safe settings while
// module 1 still plans at the same boundary, the run completes, and two
// runs are identical.
//
//hpm:pin degraded
func TestPanicFallbackTwoModules(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	trace := steadyTrace(24, 1500) // 50 req/s across 4 computers
	type outcome struct {
		rec       *Record
		panicTick int
		module1At []int
	}
	runOnce := func() outcome {
		mgr, err := NewManager(spec, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		mgr.jtildes = []controller.JTilde{panicJTilde{}, panicJTilde{}}
		s, err := mgr.NewSession(testStore(t), SessionConfig{Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{panicTick: -1}
		calls := 0
		s.SetL1Failpoint(func(module, tick int) {
			if module == 1 {
				out.module1At = append(out.module1At, tick)
				return
			}
			if calls++; calls == 3 {
				out.panicTick = tick
				panic("injected L1 fault")
			}
		})
		for _, count := range trace.Values {
			if err := s.StepBin(count); err != nil {
				t.Fatal(err)
			}
		}
		if out.rec, err = s.Finish(); err != nil {
			t.Fatal(err)
		}
		out.rec.LearnTime, out.rec.L0Time, out.rec.L1Time, out.rec.L2Time = 0, 0, 0, 0
		return out
	}
	a := runOnce()
	if a.panicTick < 0 {
		t.Fatal("the L1 failpoint never fired")
	}
	if !slices.Contains(a.module1At, a.panicTick) {
		t.Errorf("module 1 did not plan at tick %d, where module 0 fell back (planned at %v)", a.panicTick, a.module1At)
	}
	boundaries := a.rec.Operational.Len()
	if want := 2*boundaries - 1; a.rec.L1Decisions != want {
		t.Errorf("L1 decisions %d over %d boundaries, want %d (all but module 0's panicked one)", a.rec.L1Decisions, boundaries, want)
	}
	if a.rec.L2Decisions != 0 {
		t.Errorf("L2 decisions %d with a J̃ that always panics, want 0", a.rec.L2Decisions)
	}
	l2Boundaries := a.rec.GammaModules[0].Len()
	if l2Boundaries == 0 {
		t.Fatal("no L2 boundary recorded")
	}
	// Every L2 boundary degrades. T_L1 = T_L2 here, so module 0's fallback
	// falls on one of them and adds no tick.
	if a.rec.DegradedTicks != l2Boundaries {
		t.Errorf("degraded ticks %d, want the %d L2 boundaries", a.rec.DegradedTicks, l2Boundaries)
	}
	for i, g := range a.rec.GammaModules {
		for b, v := range g.Values {
			if v != 0.5 {
				t.Fatalf("γ_%d at L2 boundary %d = %v, want the equal split held", i, b, v)
			}
		}
	}
	if a.rec.Completed == 0 {
		t.Fatal("the degraded run completed no requests")
	}
	if b := runOnce(); !reflect.DeepEqual(a, b) {
		t.Error("two degraded runs diverged")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	runOnce := func() *Record {
		mgr, err := NewManager(spec, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := mgr.Run(testStore(t), SessionConfig{Trace: steadyTrace(20, 600)})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := runOnce(), runOnce()
	if a.Completed != b.Completed {
		t.Errorf("completed differ: %d vs %d", a.Completed, b.Completed)
	}
	if a.Energy != b.Energy {
		t.Errorf("energy differs: %v vs %v", a.Energy, b.Energy)
	}
	if a.Switches != b.Switches {
		t.Errorf("switches differ: %d vs %d", a.Switches, b.Switches)
	}
}

func TestRunValidation(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t)
	if _, err := mgr.Run(store, SessionConfig{}); err == nil {
		t.Error("nil trace: want error")
	}
	if _, err := mgr.Run(nil, SessionConfig{Trace: steadyTrace(10, 100)}); err == nil {
		t.Error("nil store: want error")
	}
	bad := series.New(0, 45, 10) // 45 s bins are not a multiple of 30 s
	for i := range bad.Values {
		bad.Values[i] = 100
	}
	if _, err := mgr.Run(store, SessionConfig{Trace: bad}); err == nil {
		t.Error("misaligned trace bins: want error")
	}
}

func TestRecordSeriesShapes(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := steadyTrace(16, 300)
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	// 16 bins of 30 s = 16 T_L0 steps = 4 T_L1 periods.
	if got := rec.ResponseMean.Len(); got != 16 {
		t.Errorf("ResponseMean bins = %d, want 16", got)
	}
	if got := rec.Operational.Len(); got != 4 {
		t.Errorf("Operational bins = %d, want 4", got)
	}
	// Predictions start after the first boundary: 3 pairs.
	if got := rec.PredictedL1.Len(); got != 3 {
		t.Errorf("PredictedL1 bins = %d, want 3", got)
	}
	if rec.PredictedL1.Len() != rec.ActualL1.Len() {
		t.Error("prediction/actual series misaligned")
	}
	for name, s := range rec.FreqByComputer {
		if s.Len() != 16 {
			t.Errorf("frequency series %s has %d bins, want 16", name, s.Len())
		}
	}
	if rec.ExploredPerL1Decision() <= 0 {
		t.Error("ExploredPerL1Decision not positive")
	}
	if rec.DecisionTimePerPeriod() <= 0 {
		t.Error("DecisionTimePerPeriod not positive")
	}
}

func TestManagerLearningShared(t *testing.T) {
	// Identical hardware across modules must not multiply learning work:
	// learn time for 4 identical modules should be far below 4× one
	// module's (coarse proxy: it completes quickly and the manager holds
	// shared maps).
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2), moduleOf("M3", 2), moduleOf("M4", 2),
	}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(mgr.gmaps) != 4 {
		t.Fatalf("modules = %d, want 4", len(mgr.gmaps))
	}
	// All computers share one hardware key, so all gmaps must be the
	// same object.
	first := mgr.gmaps[0][0]
	for _, gmaps := range mgr.gmaps {
		for _, g := range gmaps {
			if g != first {
				t.Fatal("identical hardware got distinct abstraction maps")
			}
		}
	}
}
