package hierctl

import (
	"reflect"
	"strings"
	"testing"
)

func fastMatrixOptions() ScenarioMatrixOptions {
	opts := DefaultScenarioMatrixOptions()
	opts.MaxBins = 16
	return opts
}

// TestScenarioMatrixSmoke runs the full robustness matrix at the smallest
// bin budget: every registered parameter-free scenario under every matrix
// policy must produce a populated cell.
func TestScenarioMatrixSmoke(t *testing.T) {
	snap, err := RunScenarioMatrix(fastMatrixOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Scenarios) < 8 {
		t.Fatalf("matrix covers %d scenarios, want >= 8 (3 seed + 5 new)", len(snap.Scenarios))
	}
	if want := len(snap.Scenarios) * len(snap.Policies); len(snap.Cells) != want {
		t.Fatalf("%d cells for %d scenario x %d policies", len(snap.Cells), len(snap.Scenarios), len(snap.Policies))
	}
	for _, c := range snap.Cells {
		if c.Completed == 0 {
			t.Errorf("cell %s/%s completed nothing", c.Scenario, c.Policy)
		}
		if c.Energy <= 0 {
			t.Errorf("cell %s/%s has energy %v", c.Scenario, c.Policy, c.Energy)
		}
		if c.Bins < 16 {
			t.Errorf("cell %s/%s ran %d bins", c.Scenario, c.Policy, c.Bins)
		}
		switch c.Policy {
		case "hierarchical-llc", "centralized":
			if c.ExploredPerPeriod <= 0 {
				t.Errorf("cell %s/%s has no search overhead recorded", c.Scenario, c.Policy)
			}
		case "threshold":
			if c.ExploredPerPeriod != 0 {
				t.Errorf("threshold cell %s reports explored states", c.Scenario)
			}
		}
	}
}

// TestScenarioMatrixDeterminism pins the snapshot invariant CI relies on:
// the matrix is bit-identical across GOMAXPROCS and across repeated runs
// with the same seed, and differs across seeds.
func TestScenarioMatrixDeterminism(t *testing.T) {
	opts := fastMatrixOptions()
	a, b := atGOMAXPROCS(t, 3, func() (*ScenarioMatrixSnapshot, error) { return RunScenarioMatrix(opts) })
	if !reflect.DeepEqual(a, b) {
		t.Fatal("matrix differs between GOMAXPROCS 1 and 3")
	}
	opts.Seed = 2
	c, err := RunScenarioMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, c.Cells) {
		t.Fatal("matrix identical across seeds 1 and 2")
	}
}

func TestScenarioMatrixValidation(t *testing.T) {
	opts := DefaultScenarioMatrixOptions()
	opts.MaxBins = 8
	if _, err := RunScenarioMatrix(opts); err == nil {
		t.Error("bin budget 8 should be rejected")
	}
}

func TestRunScenarioByName(t *testing.T) {
	opts := ExperimentOptions{Scale: 0.05, Seed: 1, Fast: true, Scenario: "flashcrowd"}
	rec, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed == 0 {
		t.Error("flashcrowd run completed nothing")
	}
	// Empty scenario falls back to the §4.3 synthetic day.
	opts.Scenario = ""
	opts.Scale = 0.01
	if _, err := RunScenario(opts); err != nil {
		t.Errorf("default scenario: %v", err)
	}
	opts.Scenario = "no-such-scenario"
	_, err = RunScenario(opts)
	if err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown scenario error %v should list registered names", err)
	}
}

// TestRunScenarioFailstormInjects pins that the failstorm scenario's plan
// reaches the hierarchy's failure-injection path: the record must differ
// from the same run without the storm.
func TestRunScenarioFailstormInjects(t *testing.T) {
	storm, err := RunScenario(ExperimentOptions{Scale: 0.05, Seed: 1, Fast: true, Scenario: "failstorm"})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunScenario(ExperimentOptions{Scale: 0.05, Seed: 1, Fast: true, Scenario: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if storm.Energy == clean.Energy && storm.Completed == clean.Completed {
		t.Error("failstorm run indistinguishable from the clean synthetic run")
	}
}
