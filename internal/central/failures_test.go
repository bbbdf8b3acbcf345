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
