package central

import (
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/des"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// TestRunWithFailurePlan exercises scenario failure injection in the flat
// controller: failures must change the run, repairs must let the
// controller recover, out-of-range entries are skipped, and the run stays
// deterministic per seed.
func TestRunWithFailurePlan(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		{Name: "M1", Computers: testSpecs(3)},
	}}
	trace := series.New(0, 30, 40)
	for i := range trace.Values {
		trace.Values[i] = 600
	}
	storeCfg := workload.DefaultStoreConfig()
	storeCfg.Objects = 300
	storeCfg.PopularCount = 30
	newStore := func() *workload.Store {
		s, err := workload.NewStore(des.NewStream(2, "store"), storeCfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg := DefaultRunnerConfig()
	span := trace.End() - trace.Start
	cfg.Failures = []workload.FailureEvent{
		{At: 0.3 * span, Module: 0, Comp: 0},
		{At: 0.3 * span, Module: 0, Comp: 1},
		{At: 0.7 * span, Module: 0, Comp: 0, Repair: true},
		{At: 0.7 * span, Module: 0, Comp: 1, Repair: true},
		{At: 0.3 * span, Module: 5, Comp: 0}, // skipped
	}
	res, err := Run(spec, trace, newStore(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	res2, err := Run(spec, trace, newStore(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy != res2.Energy || res.Completed != res2.Completed || res.Dropped != res2.Dropped {
		t.Errorf("failure-plan run not deterministic: (%v,%d,%d) vs (%v,%d,%d)",
			res.Energy, res.Completed, res.Dropped, res2.Energy, res2.Completed, res2.Dropped)
	}
	cfg.Failures = nil
	clean, err := Run(spec, trace, newStore(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Energy == res.Energy && clean.Completed == res.Completed {
		t.Error("failure plan had no observable effect on the run")
	}
}

// TestDecideAllDownIsAllOff pins the total-outage decision: with no
// computer available there is nothing to search, so Decide returns the
// all-off configuration — zero γ, the frequencies in force, nothing
// explored — as the hierarchy's L1 does for a fully failed module.
func TestDecideAllDownIsAllOff(t *testing.T) {
	ctl, err := New(DefaultConfig(), testSpecs(3))
	if err != nil {
		t.Fatal(err)
	}
	prevFreq := []int{1, 3, 0}
	dec, err := ctl.Decide(Observation{
		QueueLens: []float64{4, 0, 7},
		LambdaHat: 60,
		Delta:     5,
		CHat:      0.0175,
		Available: []bool{false, false, false},
		InForce:   &Decision{Alpha: []bool{true, true, true}, Gamma: []float64{0.3, 0.3, 0.4}, FreqIdx: prevFreq},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range dec.Alpha {
		if dec.Alpha[j] || dec.Gamma[j] != 0 || dec.FreqIdx[j] != prevFreq[j] {
			t.Errorf("computer %d: (α %v, γ %v, u %d), want (false, 0, %d)", j, dec.Alpha[j], dec.Gamma[j], dec.FreqIdx[j], prevFreq[j])
		}
	}
	if dec.Explored != 0 {
		t.Errorf("explored %d states with nothing to search", dec.Explored)
	}
}

// TestRunSurvivesTotalOutage runs a module whose every computer fails and
// is later repaired: the run must complete, keep deciding through the
// outage, and serve again after the repair.
func TestRunSurvivesTotalOutage(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		{Name: "M1", Computers: testSpecs(4)},
	}}
	trace := series.New(0, 30, 40)
	for i := range trace.Values {
		trace.Values[i] = 600
	}
	storeCfg := workload.DefaultStoreConfig()
	storeCfg.Objects = 300
	storeCfg.PopularCount = 30
	store, err := workload.NewStore(des.NewStream(2, "store"), storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunnerConfig()
	for j := 0; j < 4; j++ {
		cfg.Failures = append(cfg.Failures,
			workload.FailureEvent{At: 300, Module: 0, Comp: j},
			workload.FailureEvent{At: 700, Module: 0, Comp: j, Repair: true})
	}
	res, err := Run(spec, trace, store, cfg)
	if err != nil {
		t.Fatalf("run through a total outage: %v", err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.Operational.Values[len(res.Operational.Values)-1] == 0 {
		t.Error("no computer operational after the repair")
	}
	sawOutage := false
	for _, v := range res.Operational.Values {
		sawOutage = sawOutage || v == 0
	}
	if !sawOutage {
		t.Error("the outage never showed in the operational series")
	}
}
