package hierctl

import (
	"reflect"
	"testing"

	"hierctl/internal/central"
	"hierctl/internal/workload"
)

// chaosFingerprint is the deterministic subset of a Record — everything
// except wall-clock timings — so runs can be compared bit-for-bit.
type chaosFingerprint struct {
	Completed, Dropped, Misroutes       int64
	Energy                              float64
	Switches                            int
	Mean, Violation, P50, P95, P99, Max float64
	Explored, Decisions                 [3]int
	Degraded                            int
	Stale, Rejects                      int64
	Trace, Oper, Resp, Predicted        []float64
}

func chaosFingerprintOf(r *Record) chaosFingerprint {
	return chaosFingerprint{
		Completed: r.Completed, Dropped: r.Dropped, Misroutes: r.Misroutes,
		Energy: r.Energy, Switches: r.Switches,
		Mean: r.MeanResponse(), Violation: r.ViolationFrac,
		P50: r.ResponseP50, P95: r.ResponseP95, P99: r.ResponseP99, Max: r.ResponseMax,
		Explored:  [3]int{r.L0Explored, r.L1Explored, r.L2Explored},
		Decisions: [3]int{r.L0Decisions, r.L1Decisions, r.L2Decisions},
		Degraded:  r.DegradedTicks, Stale: r.StaleObservations, Rejects: r.SanitizedRejects,
		Trace: r.Trace.Values, Oper: r.Operational.Values,
		Resp: r.ResponseMean.Values, Predicted: r.PredictedL1.Values,
	}
}

// runDegradedHier runs the hierarchical controller on a registered
// scenario's leading maxBins bins, learning on par workers, under the
// scenario's failure plan and the chaos plan, with prep (when not nil)
// applied to the session before its first bin (failpoints). It is
// Manager.Run with the session in reach.
func runDegradedHier(t *testing.T, scenario string, seed int64, par, maxBins int, plan ChaosPlan, prep func(*Session)) *Record {
	t.Helper()
	sc, err := workload.LookupScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := StandardModuleCluster()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sc.Trace(seed)
	if err != nil {
		t.Fatal(err)
	}
	sc.ScaleToCluster(trace, spec.Computers())
	if trace.Len() > maxBins {
		trace = trace.Slice(0, maxBins)
	}
	cfg := ExperimentOptions{Scale: 1, Seed: seed, Fast: true}.Config()
	cfg.Parallelism = par
	mgr, err := NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(seed, sc.StoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.NewSession(store, SessionConfig{Trace: trace, Failures: sc.FailurePlan(trace), Chaos: plan})
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(sess)
	}
	for _, count := range trace.Values {
		if err := sess.StepBin(count); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestChaosZeroFaultEquivalence is the no-op pin: injecting the "none"
// plan (or any empty plan) must leave runs bit-identical to runs with no
// chaos injected at all, across scenarios, seeds, and learning parallelism —
// the always-on sanitizer path must not perturb a healthy run.
func TestChaosZeroFaultEquivalence(t *testing.T) {
	none, err := LookupChaosPlan("none")
	if err != nil {
		t.Fatal(err)
	}
	var firstBySeed [2]chaosFingerprint
	for _, scenario := range []string{"synthetic", "flashcrowd"} {
		for si, seed := range []int64{1, 2} {
			plain := chaosFingerprintOf(runDegradedHier(t, scenario, seed, 1, 24, ChaosPlan{}, nil))
			if plain.Degraded != 0 || plain.Stale != 0 || plain.Rejects != 0 {
				t.Errorf("%s seed %d: healthy run reports degraded counters: %+v", scenario, seed,
					[]int64{int64(plain.Degraded), plain.Stale, plain.Rejects})
			}
			for _, par := range []int{1, 4} {
				got := chaosFingerprintOf(runDegradedHier(t, scenario, seed, par, 24, none.Build(seed, 1e9), nil))
				if !reflect.DeepEqual(plain, got) {
					t.Errorf("%s seed %d parallelism %d: zero-fault chaos run diverged from plain run", scenario, seed, par)
				}
			}
			if scenario == "synthetic" {
				firstBySeed[si] = plain
			}
		}
	}
	// Sanity check on the comparison itself: different seeds must differ.
	if reflect.DeepEqual(firstBySeed[0], firstBySeed[1]) {
		t.Error("fingerprints identical across seeds — the comparison is vacuous")
	}
}

// TestChaosZeroFaultEquivalenceBaselines extends the no-op pin to the two
// flat controllers, which share the engine sanitizer path.
func TestChaosZeroFaultEquivalenceBaselines(t *testing.T) {
	none, err := LookupChaosPlan("none")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workload.LookupScenario("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := StandardModuleCluster()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sc.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	sc.ScaleToCluster(trace, spec.Computers())
	trace = trace.Slice(0, 24)
	failures := sc.FailurePlan(trace)

	runThreshold := func(inject bool) *BaselineResult {
		pol, err := ThresholdPolicy(0.35, 0.8, 1)
		if err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(1, sc.StoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultBaselineConfig()
		cfg.Seed = 1
		cfg.Failures = failures
		if inject {
			cfg.Chaos = none.Build(1, 1e9)
		}
		res, err := RunBaseline(spec, pol, trace, store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := runThreshold(false), runThreshold(true); !reflect.DeepEqual(a, b) {
		t.Error("threshold: zero-fault chaos run diverged from plain run")
	}

	runCentral := func(inject bool) *central.Result {
		store, err := NewStore(1, sc.StoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := central.DefaultRunnerConfig()
		cfg.Seed = 1
		cfg.Failures = failures
		cfg.Controller.NeighbourDepth = 1
		if inject {
			cfg.Chaos = none.Build(1, 1e9)
		}
		res, err := central.Run(spec, trace, store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.DecideTimePerStep = 0 // wall clock — not part of the pin
		return res
	}
	if a, b := runCentral(false), runCentral(true); !reflect.DeepEqual(a, b) {
		t.Error("centralized: zero-fault chaos run diverged from plain run")
	}
}

// TestDeadlineFallbackDeterministic pins the decision-deadline path: a
// squeezed budget trips the safe fallback on some ticks, the run still
// completes, and two identical runs — including which ticks degraded —
// are bit-identical.
func TestDeadlineFallbackDeterministic(t *testing.T) {
	squeeze := ChaosPlan{Name: "squeeze", DecisionBudget: 24}
	a := runDegradedHier(t, "flashcrowd", 1, 1, 24, squeeze, nil)
	if a.DegradedTicks == 0 {
		t.Fatal("budget 24 tripped no deadline fallback")
	}
	if a.Completed == 0 {
		t.Fatal("degraded run completed no requests")
	}
	b := runDegradedHier(t, "flashcrowd", 1, 2, 24, squeeze, nil)
	if !reflect.DeepEqual(chaosFingerprintOf(a), chaosFingerprintOf(b)) {
		t.Error("deadline-fallback runs diverged across repetitions/parallelism")
	}
}

// TestPanicFallbackDeterministic pins the panic leg of the fallback: a
// controller panic mid-run is recovered into the same deterministic safe
// settings, the run completes, and the outcome is reproducible.
func TestPanicFallbackDeterministic(t *testing.T) {
	// Trigger on module 0's third planning call rather than a fixed tick,
	// so the test doesn't depend on the L1 cadence. Only module 0's calls
	// touch the counter, and ticks are sequenced by the run loop.
	boom := func(s *Session) {
		calls := 0
		s.SetL1Failpoint(func(module, tick int) {
			if module == 0 {
				if calls++; calls == 3 {
					panic("injected controller fault")
				}
			}
		})
	}
	a := runDegradedHier(t, "synthetic", 1, 1, 24, ChaosPlan{}, boom)
	if a.DegradedTicks == 0 {
		t.Fatal("recovered panic produced no degraded tick")
	}
	if a.Completed == 0 {
		t.Fatal("run with recovered panic completed no requests")
	}
	b := runDegradedHier(t, "synthetic", 1, 1, 24, ChaosPlan{}, boom)
	if !reflect.DeepEqual(chaosFingerprintOf(a), chaosFingerprintOf(b)) {
		t.Error("panic-fallback runs diverged across repetitions")
	}
	healthy := chaosFingerprintOf(runDegradedHier(t, "synthetic", 1, 1, 24, ChaosPlan{}, nil))
	if reflect.DeepEqual(healthy, chaosFingerprintOf(a)) {
		t.Error("panic fallback indistinguishable from healthy run — failpoint never fired?")
	}
}

func fastChaosMatrixOptions() ChaosMatrixOptions {
	opts := DefaultChaosMatrixOptions()
	opts.MaxBins = 16
	return opts
}

// TestChaosMatrixSmoke runs the full degraded-mode matrix at the smallest
// bin budget and checks each plan leaves its expected signature.
func TestChaosMatrixSmoke(t *testing.T) {
	snap, err := RunChaosMatrix(fastChaosMatrixOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Plans) != len(ChaosPlanNames()) {
		t.Fatalf("matrix covers %d plans, registry has %d", len(snap.Plans), len(ChaosPlanNames()))
	}
	if len(snap.Cells) != len(snap.Plans)*len(snap.Policies) {
		t.Fatalf("%d cells for %d plans x %d policies", len(snap.Cells), len(snap.Plans), len(snap.Policies))
	}
	cell := func(plan, policy string) ChaosCell {
		for _, c := range snap.Cells {
			if c.Plan == plan && c.Policy == policy {
				return c
			}
		}
		t.Fatalf("cell (%s, %s) missing", plan, policy)
		return ChaosCell{}
	}
	for _, c := range snap.Cells {
		if c.Bins == 0 || c.Completed == 0 {
			t.Errorf("cell (%s, %s) is empty: %+v", c.Plan, c.Policy, c)
		}
		if c.Plan == "none" && (c.DegradedTicks != 0 || c.StaleObservations != 0 || c.SanitizedRejects != 0) {
			t.Errorf("healthy cell (%s, %s) reports degraded counters: %+v", c.Plan, c.Policy, c)
		}
		if c.Policy != "hierarchical-llc" && c.DegradedTicks != 0 {
			t.Errorf("deadline-free policy %s reports degraded ticks under %s", c.Policy, c.Plan)
		}
	}
	for _, policy := range snap.Policies {
		if c := cell("drop-bins", policy); c.StaleObservations == 0 {
			t.Errorf("drop-bins under %s held no stale observations", policy)
		}
		if c := cell("corrupt-counts", policy); c.SanitizedRejects == 0 {
			t.Errorf("corrupt-counts under %s rejected nothing", policy)
		}
	}
	if c := cell("deadline", "hierarchical-llc"); c.DegradedTicks == 0 {
		t.Error("deadline plan tripped no fallback on the hierarchical controller")
	}
}

// TestChaosMatrixDeterminism pins the committed BENCH_chaos.json contract:
// the snapshot is identical at any GOMAXPROCS, and seed-sensitive.
func TestChaosMatrixDeterminism(t *testing.T) {
	opts := fastChaosMatrixOptions()
	a, b := atGOMAXPROCS(t, 3, func() (*ChaosMatrixSnapshot, error) { return RunChaosMatrix(opts) })
	if !reflect.DeepEqual(a, b) {
		t.Error("chaos matrix differs between GOMAXPROCS 1 and 3")
	}
	opts.Seed = 2
	c, err := RunChaosMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, c.Cells) {
		t.Error("chaos matrix identical across seeds")
	}
}

func TestChaosMatrixValidation(t *testing.T) {
	opts := fastChaosMatrixOptions()
	opts.MaxBins = 4
	if _, err := RunChaosMatrix(opts); err == nil {
		t.Error("bin budget below the floor accepted")
	}
	opts = fastChaosMatrixOptions()
	opts.Scenario = "no-such-scenario"
	if _, err := RunChaosMatrix(opts); err == nil {
		t.Error("unknown scenario accepted")
	}
}
