package hierctl

import (
	"math"
	"strings"
	"testing"
)

// fastOpts keeps full-pipeline tests quick while still exercising every
// stage (learning, forecasting, three controller levels, plant).
func fastOpts() ExperimentOptions {
	return ExperimentOptions{Scale: 0.05, Seed: 1, Fast: true}
}

func TestFacadeConstructors(t *testing.T) {
	if _, err := StandardComputer(0, "c"); err != nil {
		t.Error(err)
	}
	if _, err := StandardComputer(9, "c"); err == nil {
		t.Error("bad kind: want error")
	}
	spec, err := StandardModuleCluster()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Computers() != 4 {
		t.Errorf("standard module cluster has %d computers, want 4", spec.Computers())
	}
	spec, err = ScaledModuleCluster(6)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Computers() != 6 {
		t.Errorf("scaled cluster has %d computers, want 6", spec.Computers())
	}
	spec, err = StandardCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Computers() != 20 {
		t.Errorf("standard cluster(5) has %d computers, want 20", spec.Computers())
	}
	if _, err := NewStore(1, DefaultStoreConfig()); err != nil {
		t.Error(err)
	}
	if _, err := SyntheticTrace(DefaultSyntheticConfig()); err != nil {
		t.Error(err)
	}
	if _, err := WC98Trace(DefaultWC98Config()); err != nil {
		t.Error(err)
	}
	if _, err := StepTrace(10, 30, 1, 2, 5); err != nil {
		t.Error(err)
	}
}

func TestFacadePolicies(t *testing.T) {
	if AlwaysOnPolicy() == nil {
		t.Error("nil always-on policy")
	}
	if _, err := ThresholdPolicy(0.3, 0.8, 1); err != nil {
		t.Error(err)
	}
	if _, err := ThresholdPolicy(0.8, 0.3, 1); err == nil {
		t.Error("bad watermarks: want error")
	}
	if _, err := ThresholdDVFSPolicy(0.3, 0.8, 1, 0.8); err != nil {
		t.Error(err)
	}
}

func TestFig3Table(t *testing.T) {
	tab, err := Fig3Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"C1", "C2", "C3", "C4", "550", "2000"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Fig. 3 table missing %q:\n%s", want, tab)
		}
	}
}

func TestExperimentOptionsValidation(t *testing.T) {
	bad := ExperimentOptions{Scale: 0}
	if _, err := RunFig4Fig5(bad); err == nil {
		t.Error("zero scale: want error")
	}
	bad = ExperimentOptions{Scale: 1.5}
	if _, err := RunFig6Fig7(bad); err == nil {
		t.Error("scale > 1: want error")
	}
}

func TestRunFig4Fig5Shape(t *testing.T) {
	rec, err := RunFig4Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// Fig. 4 series present and aligned.
	if rec.PredictedL1.Len() == 0 || rec.PredictedL1.Len() != rec.ActualL1.Len() {
		t.Errorf("prediction series %d/%d", rec.PredictedL1.Len(), rec.ActualL1.Len())
	}
	if rec.Operational.Len() == 0 {
		t.Error("no operational series")
	}
	if rec.Operational.Max() > 4 || rec.Operational.Min() < 1 {
		t.Errorf("operational range [%v, %v] outside [1, 4]", rec.Operational.Min(), rec.Operational.Max())
	}
	// Fig. 5 series: C4 frequencies recorded within its ladder.
	c4, ok := rec.FreqByComputer["M1-C4"]
	if !ok {
		t.Fatal("no frequency series for M1-C4")
	}
	for _, hz := range c4.Values {
		if hz != 0 && (hz < 600e6 || hz > 2000e6) {
			t.Errorf("C4 frequency %v outside its ladder", hz)
		}
	}
	// QoS: the mean response must respect the target.
	if rec.MeanResponse() > rec.TargetResponse {
		t.Errorf("mean response %v above target %v", rec.MeanResponse(), rec.TargetResponse)
	}
	// Forecast sanity: Kalman predictions track actuals within 30%.
	var mae, mean float64
	for i := range rec.PredictedL1.Values {
		mae += math.Abs(rec.PredictedL1.Values[i] - rec.ActualL1.Values[i])
		mean += rec.ActualL1.Values[i]
	}
	if mean > 0 && mae/mean > 0.3 {
		t.Errorf("forecast MAE fraction %v too high", mae/mean)
	}
}

func TestRunFig6Fig7Shape(t *testing.T) {
	rec, err := RunFig6Fig7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if len(rec.GammaModules) != 4 {
		t.Fatalf("gamma series for %d modules, want 4", len(rec.GammaModules))
	}
	bins := rec.GammaModules[0].Len()
	if bins == 0 {
		t.Fatal("no γ_i samples")
	}
	for b := 0; b < bins; b++ {
		sum := 0.0
		for i := 0; i < 4; i++ {
			sum += rec.GammaModules[i].Values[b]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Σγ at bin %d = %v", b, sum)
		}
	}
	if rec.Operational.Max() > 16 {
		t.Errorf("operational %v exceeds cluster size", rec.Operational.Max())
	}
	if rec.L2Decisions == 0 {
		t.Error("L2 made no decisions")
	}
}

func TestOverheadRows(t *testing.T) {
	row, err := RunOverheadModule(4, 0.05, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if row.Computers != 4 {
		t.Errorf("computers = %d", row.Computers)
	}
	// An L1 period's explored states are map probes: at least one, and at
	// most one per cell of the (queue, arrival-rate) grid per computer.
	grid := fastOpts().Config().GMap
	cells := (grid.QMax/grid.QStep + 1) * (grid.LambdaMax/grid.LambdaStep + 1)
	if row.ExploredPerL1 < 1 || row.ExploredPerL1 > 4*cells {
		t.Errorf("states per L1 = %v, outside [1, %v]", row.ExploredPerL1, 4*cells)
	}
	if row.DecisionTime <= 0 {
		t.Error("decision time not recorded")
	}
	if _, err := RunOverheadModule(0, 0.05, fastOpts()); err == nil {
		t.Error("zero module size: want error")
	}
}

func TestEnergyComparisonOrdering(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 0.1 // include some diurnal variation
	rows, err := RunEnergyComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byPolicy := map[string]EnergyRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	llc, ok1 := byPolicy["hierarchical-llc"]
	alwaysOn, ok2 := byPolicy["always-on"]
	if !ok1 || !ok2 {
		t.Fatalf("missing policies in %v", rows)
	}
	// The headline claim: LLC spends materially less energy than the
	// static configuration while keeping the mean response under target.
	if llc.Energy >= alwaysOn.Energy {
		t.Errorf("LLC energy %v not below always-on %v", llc.Energy, alwaysOn.Energy)
	}
	if llc.MeanResponse > 4 {
		t.Errorf("LLC mean response %v above target", llc.MeanResponse)
	}
}

func TestAblationsRun(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 0.03
	rows, err := RunAblations(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d ablation rows, want 9", len(rows))
	}
	labels := map[string]bool{}
	for _, r := range rows {
		labels[r.Label] = true
		if r.Energy <= 0 {
			t.Errorf("%s: energy %v", r.Label, r.Energy)
		}
	}
	if !labels["N_L0=3 (paper)"] || !labels["no-chattering-mitigation"] ||
		!labels["oracle-forecast (not realizable)"] {
		t.Errorf("missing expected variants: %v", labels)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	a, err := RunFig4Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig4Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Energy != b.Energy || a.Switches != b.Switches {
		t.Errorf("same options diverged: (%d, %v, %d) vs (%d, %v, %d)",
			a.Completed, a.Energy, a.Switches, b.Completed, b.Energy, b.Switches)
	}
}
