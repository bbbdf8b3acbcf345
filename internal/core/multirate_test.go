package core

import (
	"math"
	"reflect"
	"testing"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/workload"
)

// TestMultiRateCadences exercises §3's "controllers at various levels of
// the hierarchy can operate at different time scales": T_L2 = 2·T_L1.
func TestMultiRateCadences(t *testing.T) {
	cfg := fastConfig()
	cfg.L2.PeriodSeconds = 240 // T_L1 = 120, T_L2 = 240
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	mgr, err := NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := steadyTrace(32, 900) // 32 T_L0 steps = 8 T_L1 = 4 T_L2
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if rec.L1Decisions != 8*2 { // per module
		t.Errorf("L1 decisions = %d, want 16", rec.L1Decisions)
	}
	if rec.L2Decisions != 4 {
		t.Errorf("L2 decisions = %d, want 4", rec.L2Decisions)
	}
	if got := rec.GammaModules[0].Len(); got != 4 {
		t.Errorf("γ samples = %d, want 4", got)
	}
	if rec.GammaModules[0].Step != 240 {
		t.Errorf("γ series step = %v, want 240", rec.GammaModules[0].Step)
	}
}

// TestMisalignedL2Rejected verifies T_L2 must be a multiple of T_L1.
func TestMisalignedL2Rejected(t *testing.T) {
	cfg := fastConfig()
	cfg.L2.PeriodSeconds = 180 // not a multiple of 120
	if err := cfg.Validate(); err == nil {
		t.Error("T_L2 = 1.5 T_L1: want error")
	}
}

// TestRecordFrequenciesDisabled covers the memory-saving path for large
// clusters.
func TestRecordFrequenciesDisabled(t *testing.T) {
	cfg := fastConfig()
	cfg.RecordFrequencies = false
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	mgr, err := NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: steadyTrace(16, 300)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.FreqByComputer) != 0 {
		t.Errorf("frequency series recorded despite being disabled: %d", len(rec.FreqByComputer))
	}
	if rec.Completed == 0 {
		t.Error("run did not complete requests")
	}
}

// TestStreamingRecordHasNoFrequencySeries: RecordFrequencies governs
// trace runs only. A streaming session's finished record carries no
// frequency series whichever way it is set.
func TestStreamingRecordHasNoFrequencySeries(t *testing.T) {
	for _, record := range []bool{true, false} {
		cfg := fastConfig()
		cfg.RecordFrequencies = record
		mgr, err := NewManager(cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := mgr.NewSession(testStore(t), SessionConfig{BinSeconds: 30})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := sess.StepBin(300); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if rec.FreqByComputer != nil {
			t.Errorf("RecordFrequencies=%v: streaming record has %d frequency series", record, len(rec.FreqByComputer))
		}
		if rec.Completed == 0 {
			t.Errorf("RecordFrequencies=%v: session completed no requests", record)
		}
	}
}

// TestAllComputersFailedModule drives one module to total failure and
// verifies the hierarchy routes around it.
func TestAllComputersFailedModule(t *testing.T) {
	cfg := fastConfig()
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	mgr, err := NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := steadyTrace(40, 900)
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace, Failures: []workload.FailureEvent{
		{At: 300, Module: 0, Comp: 0},
		{At: 300, Module: 0, Comp: 1}, // module 0 fully dead
	}})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(trace.Sum())
	if rec.Completed+rec.Dropped < total*95/100 {
		t.Errorf("completed+dropped %d of %d", rec.Completed+rec.Dropped, total)
	}
	// Module 2 must have carried the load after the failure: its share
	// of completions dominates.
	if rec.Completed < total/2 {
		t.Errorf("completed %d of %d — surviving module did not absorb load", rec.Completed, total)
	}
}

// outageRun replays a 40-bin steady trace on two 2-computer modules with
// the computers of the first `down` modules failing at t = 90 s and repaired
// at 600 s.
func outageRun(t *testing.T, down int) (*Record, error) {
	t.Helper()
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var plan []workload.FailureEvent
	for i := 0; i < down; i++ {
		for j := range spec.Modules[i].Computers {
			plan = append(plan,
				workload.FailureEvent{At: 90, Module: i, Comp: j},
				workload.FailureEvent{At: 600, Module: i, Comp: j, Repair: true})
		}
	}
	return mgr.Run(testStore(t), SessionConfig{Trace: steadyTrace(40, 200), Failures: plan})
}

// TestAllModulesFailedRunContinues pins the whole-cluster outage through
// Manager.Run: with no module available the L2 holds its split (every L1
// goes all-off on its own), the run neither aborts nor counts the outage as
// degraded ticks, the repairs land and the backlog is served. It used to
// fail with "controller: no available modules" at the first L2 boundary
// inside the outage.
func TestAllModulesFailedRunContinues(t *testing.T) {
	rec, err := outageRun(t, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DegradedTicks != 0 {
		t.Errorf("%d degraded ticks; an outage is not a controller fault", rec.DegradedTicks)
	}
	op := rec.Operational.Values
	if op[1] != 0 || op[len(op)-1] == 0 {
		t.Errorf("operational computers per T_L1 %v, want none during the outage and some after the repair", op)
	}
	for i, g := range rec.GammaModules {
		for k, v := range g.Values {
			if v != 0.5 {
				t.Fatalf("module %d share %v at L2 boundary %d, want the equal split held throughout", i, v, k)
			}
		}
	}
	if rec.Completed < 6000 {
		t.Errorf("completed %d of 8000; the repaired cluster did not serve the backlog", rec.Completed)
	}
}

// TestAllButOneModuleFailedDecidesAsBefore pins that the outage path starts
// only where no module is left: with one module alive the L2 still decides,
// routing everything to the survivor, and the run's discrete outcomes are
// the ones recorded before the all-down case was handled. Every request is
// accounted for: completed, or dropped because the failed module held it at
// the failure instant — which requests those are follows the arrival
// stream, so only their bound is pinned: what arrived before the failure at
// 90 s, three bins of 200 (the shares below show M1 is sent nothing after).
func TestAllButOneModuleFailedDecidesAsBefore(t *testing.T) {
	rec, err := outageRun(t, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed+rec.Dropped != 8000 || rec.Dropped > 600 || rec.Switches != 5 || rec.DegradedTicks != 0 {
		t.Errorf("completed %d dropped %d switches %d degraded %d, want 8000 in all with <= 600 dropped, 5, 0",
			rec.Completed, rec.Dropped, rec.Switches, rec.DegradedTicks)
	}
	want := [][]float64{
		{0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0.5, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	}
	for i, g := range rec.GammaModules {
		if !reflect.DeepEqual(g.Values, want[i]) {
			t.Errorf("module %d shares %v, want %v", i, g.Values, want[i])
		}
	}
	if want := []float64{2, 1, 1, 1, 1, 2, 2, 2, 2, 2}; !reflect.DeepEqual(rec.Operational.Values, want) {
		t.Errorf("operational computers per T_L1 %v, want %v", rec.Operational.Values, want)
	}
}

// TestDegradedFirstL2HoldsSnappedSplit pins the module split a first L2
// boundary that cannot decide holds: the split in force before any
// decision, the equal split snapped to the L2's quantum — what the L2
// prices its next moves from, and what the run dispatches. With four
// modules and a decision budget no search fits in, that is 0.3/0.3/0.2/0.2
// after bin 0, not exact quarters.
func TestDegradedFirstL2HoldsSnappedSplit(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2), moduleOf("M3", 2), moduleOf("M4", 2),
	}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.NewSession(testStore(t), SessionConfig{BinSeconds: 30, Chaos: chaos.Plan{DecisionBudget: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sess.ObserveBin(200)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.3, 0.3, 0.2, 0.2}
	if len(dec.GammaModules) != len(want) {
		t.Fatalf("split after bin 0 %v, want %v", dec.GammaModules, want)
	}
	for i, g := range dec.GammaModules {
		if math.Abs(g-want[i]) > 1e-12 {
			t.Errorf("split after bin 0 %v, want %v", dec.GammaModules, want)
			break
		}
	}
}

// TestOracleForecastImprovesOrMatchesQoS checks the value-of-perfect-
// information ablation: with the true future arrivals instead of Kalman
// forecasts, the controller's violation fraction must not get worse on a
// volatile load.
func TestOracleForecastImprovesOrMatchesQoS(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}
	// A volatile step load where forecasting genuinely matters.
	trace := steadyTrace(60, 300)
	for i := range trace.Values {
		if (i/5)%2 == 1 {
			trace.Values[i] = 2400
		}
	}
	runWith := func(oracle bool) *Record {
		cfg := fastConfig()
		cfg.OracleForecast = oracle
		mgr, err := NewManager(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	kalman := runWith(false)
	oracle := runWith(true)
	if oracle.ViolationFrac > kalman.ViolationFrac+0.02 {
		t.Errorf("oracle violations %v worse than kalman %v", oracle.ViolationFrac, kalman.ViolationFrac)
	}
	if oracle.Completed != kalman.Completed {
		t.Errorf("completed differ: %d vs %d", oracle.Completed, kalman.Completed)
	}
}

// TestMidDayTraceSlice guards the arrival-rebasing fix: a trace sliced
// from the middle of a day (non-zero Start) must still be served — the
// request arrival times are rebased onto the simulation clock.
func TestMidDayTraceSlice(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := steadyTrace(100, 600)
	slice := full.Slice(50, 80) // Start = 1500 s
	if slice.Start == 0 {
		t.Fatal("test premise broken: slice should not start at 0")
	}
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: slice})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(slice.Sum())
	if rec.Completed != total {
		t.Errorf("completed %d of %d from mid-day slice", rec.Completed, total)
	}
	if rec.MeanResponse() <= 0 {
		t.Error("no responses recorded from mid-day slice")
	}
}

// TestLongDrainCompletesBacklog checks the drain tail finishes in-flight
// work after the trace ends.
func TestLongDrainCompletesBacklog(t *testing.T) {
	cfg := fastConfig()
	cfg.DrainSeconds = 600
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	mgr, err := NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy final bins leave a backlog at trace end.
	trace := steadyTrace(16, 600)
	for i := 12; i < 16; i++ {
		trace.Values[i] = 3000
	}
	rec, err := mgr.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(trace.Sum())
	if rec.Completed != total {
		t.Errorf("completed %d of %d after drain", rec.Completed, total)
	}
}
