package hierctl

import (
	"fmt"
	"strings"
	"time"

	"hierctl/internal/central"
	"hierctl/internal/chaos"
	"hierctl/internal/econ"
	"hierctl/internal/engine"
	"hierctl/internal/metrics"
	"hierctl/internal/par"
	"hierctl/internal/workload"
)

// ExperimentOptions tunes the preset experiment runners. The zero value is
// not valid; start from DefaultExperimentOptions.
//
// Independent work — offline learning inside each Manager and the
// experiment sweeps (scalability sizes, ablation variants, policy
// comparisons, overhead cases) — fans out over pools of GOMAXPROCS
// workers; nothing fans out inside a decision. Results are identical at
// any GOMAXPROCS, and GOMAXPROCS=1 runs everything sequentially.
type ExperimentOptions struct {
	// Scale shrinks the trace length (0 < Scale ≤ 1) so benchmarks and
	// smoke tests can run the full pipeline quickly; 1 reproduces the
	// paper-size run.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Fast coarsens the offline learning grids and shortens the L0
	// horizon to 2; use for benchmarks where learning time would
	// dominate. The paper-fidelity setting is false.
	Fast bool
	// Scenario selects a registered workload scenario by name for the
	// scenario-driven runners (RunScenario); empty means "synthetic".
	// See workload.Scenarios / ScenarioNames for the registry.
	Scenario string
}

// DefaultExperimentOptions runs experiments at full paper scale.
func DefaultExperimentOptions() ExperimentOptions {
	return ExperimentOptions{Scale: 1, Seed: 1}
}

func (o ExperimentOptions) validate() error {
	if o.Scale <= 0 || o.Scale > 1 {
		return fmt.Errorf("hierctl: scale %v outside (0, 1]", o.Scale)
	}
	return nil
}

// Config assembles the hierarchy configuration implied by the options.
func (o ExperimentOptions) Config() Config {
	cfg := DefaultConfig()
	cfg.Seed = o.Seed
	if o.Fast {
		cfg.L0.Horizon = 2
		cfg.GMap.QStep = 40
		cfg.GMap.LambdaStep = 30
		cfg.GMap.SubSteps = 2
		cfg.ModuleSim.QLevels = []float64{0, 40, 160}
		cfg.ModuleSim.LambdaLevels = []float64{0, 25, 50, 100, 200, 400}
		cfg.ModuleSim.CLevels = []float64{0.0175}
	}
	return cfg
}

// Fig3Table renders the per-computer operating-frequency table of Fig. 3.
func Fig3Table() (string, error) {
	tab := metrics.NewTable("computer", "points", "frequencies (MHz)", "speed", "base power")
	for kind := 0; kind < 4; kind++ {
		cs, err := StandardComputer(kind, fmt.Sprintf("C%d", kind+1))
		if err != nil {
			return "", err
		}
		freqs := make([]string, len(cs.FrequenciesHz))
		for i, f := range cs.FrequenciesHz {
			freqs[i] = fmt.Sprintf("%.0f", f/1e6)
		}
		tab.AddRow(cs.Name, len(cs.FrequenciesHz), strings.Join(freqs, " "), cs.SpeedFactor, cs.Power.Base)
	}
	return tab.String(), nil
}

// scaleTrace trims a trace to the leading fraction given by Scale.
func (o ExperimentOptions) scaleTrace(tr *Series) *Series {
	n := int(float64(tr.Len()) * o.Scale)
	if n < 16 {
		n = min(16, tr.Len())
	}
	return tr.Slice(0, n)
}

// RunFig4Fig5 reproduces the §4.3 module experiment behind Figs. 4 and 5:
// the four-computer module under the synthetic diurnal trace, r* = 4 s.
// The returned record carries the Fig. 4 series (workload, Kalman
// predictions, operational computers) and the Fig. 5 series (per-computer
// frequencies, achieved response times).
func RunFig4Fig5(opts ExperimentOptions) (*Record, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	spec, err := StandardModuleCluster()
	if err != nil {
		return nil, err
	}
	mgr, err := NewManager(spec, opts.Config())
	if err != nil {
		return nil, err
	}
	synth := DefaultSyntheticConfig()
	synth.Seed = opts.Seed
	trace, err := SyntheticTrace(synth)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(opts.Seed, DefaultStoreConfig())
	if err != nil {
		return nil, err
	}
	return mgr.Run(store, SessionConfig{Trace: opts.scaleTrace(trace)})
}

// RunFig6Fig7 reproduces the §5.2 cluster experiment behind Figs. 6 and 7:
// sixteen heterogeneous computers in four modules under the WC'98-like day
// trace. The record carries the Fig. 6 series (workload, operational
// computers) and the Fig. 7 series (per-module fractions γ_i).
func RunFig6Fig7(opts ExperimentOptions) (*Record, error) {
	return runCluster(4, opts)
}

// runCluster runs the §5.2 experiment on a cluster of p modules.
func runCluster(p int, opts ExperimentOptions) (*Record, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	spec, err := StandardCluster(p)
	if err != nil {
		return nil, err
	}
	mgr, err := NewManager(spec, opts.Config())
	if err != nil {
		return nil, err
	}
	wc := DefaultWC98Config()
	wc.Seed = opts.Seed
	// Scale the offered load with the cluster size so the p = 5 run is
	// comparably loaded per computer.
	wc.Peak *= float64(p) / 4
	trace, err := WC98Trace(wc)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(opts.Seed, DefaultStoreConfig())
	if err != nil {
		return nil, err
	}
	return mgr.Run(store, SessionConfig{Trace: opts.scaleTrace(trace)})
}

// OverheadRow is one line of the §4.3/§5.2 controller-overhead tables.
type OverheadRow struct {
	// Label identifies the configuration (e.g. "m=4 q=0.05").
	Label string
	// Computers is the cluster size.
	Computers int
	// ExploredPerL1 is the average abstraction-map probes per L1 period
	// (the paper's bounded search examines ≈858 states for m = 4; the
	// exact program prices every split from one probe per map cell).
	ExploredPerL1 float64
	// DecisionTime is the mean online hierarchy computation per L1
	// decision, timed by the harness around each tick's decide step (the
	// paper's MATLAB setup measured ≈2.0 s for m = 4).
	DecisionTime time.Duration
	// LearnTime is the offline learning cost.
	LearnTime time.Duration
	// MeanResponse and Energy summarize control quality, so overhead
	// rows double as sanity checks.
	MeanResponse float64
	Energy       float64
}

// RunOverheadModule reproduces the §4.3 overhead study: the module-level
// hierarchy at size m with load-fraction quantum q, under the synthetic
// trace scaled to the module size.
func RunOverheadModule(m int, quantum float64, opts ExperimentOptions) (OverheadRow, error) {
	if err := opts.validate(); err != nil {
		return OverheadRow{}, err
	}
	spec, err := ScaledModuleCluster(m)
	if err != nil {
		return OverheadRow{}, err
	}
	cfg := opts.Config()
	cfg.L1.Quantum = quantum
	mgr, err := NewManager(spec, cfg)
	if err != nil {
		return OverheadRow{}, err
	}
	synth := DefaultSyntheticConfig()
	synth.Seed = opts.Seed
	// §4.3: "after appropriately scaling the original workload".
	synth.BaseMin *= float64(m) / 4
	synth.BaseMax *= float64(m) / 4
	trace, err := SyntheticTrace(synth)
	if err != nil {
		return OverheadRow{}, err
	}
	store, err := NewStore(opts.Seed, DefaultStoreConfig())
	if err != nil {
		return OverheadRow{}, err
	}
	rec, err := mgr.Run(store, SessionConfig{Trace: opts.scaleTrace(trace)})
	if err != nil {
		return OverheadRow{}, err
	}
	return OverheadRow{
		Label:         fmt.Sprintf("m=%d q=%.2f", m, quantum),
		Computers:     m,
		ExploredPerL1: rec.ExploredPerL1Decision(),
		DecisionTime:  rec.DecisionTimePerPeriod(),
		LearnTime:     rec.LearnTime,
		MeanResponse:  rec.MeanResponse(),
		Energy:        rec.Energy,
	}, nil
}

// OverheadCase names one configuration of the §4.3 overhead sweep.
type OverheadCase struct {
	// M is the module size, Quantum the load-fraction quantum q.
	M       int
	Quantum float64
}

// DefaultOverheadCases returns the paper's §4.3 sweep: m = 4 at q = 0.05,
// m = 6 and m = 10 at q = 0.1.
func DefaultOverheadCases() []OverheadCase {
	return []OverheadCase{{4, 0.05}, {6, 0.1}, {10, 0.1}}
}

// RunOverheadModules runs the §4.3 overhead sweep (OVH1): each case is an
// independent closed-loop run, fanned across GOMAXPROCS workers.
// Row order and contents match running RunOverheadModule case by case.
func RunOverheadModules(cases []OverheadCase, opts ExperimentOptions) ([]OverheadRow, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return par.Map(par.Workers(0), len(cases), func(i int) (OverheadRow, error) {
		return RunOverheadModule(cases[i].M, cases[i].Quantum, opts)
	})
}

// RunOverheadCluster reproduces the §5.2 overhead study: the full
// hierarchy on p modules (16 computers at p = 4, 20 at p = 5).
func RunOverheadCluster(p int, opts ExperimentOptions) (OverheadRow, error) {
	rec, err := runCluster(p, opts)
	if err != nil {
		return OverheadRow{}, err
	}
	return OverheadRow{
		Label:         fmt.Sprintf("p=%d (%d computers)", p, 4*p),
		Computers:     4 * p,
		ExploredPerL1: rec.ExploredPerL1Decision(),
		DecisionTime:  rec.DecisionTimePerPeriod(),
		LearnTime:     rec.LearnTime,
		MeanResponse:  rec.MeanResponse(),
		Energy:        rec.Energy,
	}, nil
}

// RunOverheadClusters runs the §5.2 overhead sweep (OVH2) over the given
// module counts, fanning the independent runs across GOMAXPROCS workers.
func RunOverheadClusters(ps []int, opts ExperimentOptions) ([]OverheadRow, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return par.Map(par.Workers(0), len(ps), func(i int) (OverheadRow, error) {
		return RunOverheadCluster(ps[i], opts)
	})
}

// EnergyRow is one line of the EXT1 policy-comparison table.
type EnergyRow struct {
	Policy string
	// Totals is the run outcome every policy reports through the shared
	// engine harness.
	engine.Totals
	// ProfitUSD is the §4.3 "scalarized" cost: the run priced with the
	// default tariff (revenue per met-target request minus SLA, energy,
	// and switching costs).
	ProfitUSD float64
}

// priceRow applies the default tariff to a row in place.
func priceRow(r *EnergyRow) error {
	s, err := econ.DefaultTariff().Price(econ.Outcome{
		Completed:     r.Completed,
		Dropped:       r.Dropped,
		ViolationFrac: r.ViolationFrac,
		Energy:        r.Energy,
		Switches:      r.Switches,
	})
	if err != nil {
		return err
	}
	r.ProfitUSD = s.Profit
	return nil
}

// RunEnergyComparison runs the EXT1 experiment: the hierarchical LLC
// controller against the threshold heuristics and the static all-on
// configuration on the same §4.3 module and synthetic diurnal day.
func RunEnergyComparison(opts ExperimentOptions) ([]EnergyRow, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	spec, err := StandardModuleCluster()
	if err != nil {
		return nil, err
	}
	synth := DefaultSyntheticConfig()
	synth.Seed = opts.Seed
	fullTrace, err := SyntheticTrace(synth)
	if err != nil {
		return nil, err
	}
	trace := opts.scaleTrace(fullTrace)
	newStore := func() (*Store, error) { return NewStore(opts.Seed, DefaultStoreConfig()) }

	// The four policies run against private plants and stores, so the
	// comparison fans out across the worker pool; row order is fixed by
	// index (LLC first, then the baselines).
	th, err := ThresholdPolicy(0.35, 0.8, 1)
	if err != nil {
		return nil, err
	}
	dv, err := ThresholdDVFSPolicy(0.35, 0.8, 1, 0.8)
	if err != nil {
		return nil, err
	}
	baselines := []BaselinePolicy{AlwaysOnPolicy(), th, dv}
	rows := make([]EnergyRow, 1+len(baselines))
	err = par.For(par.Workers(0), len(rows), func(i int) error {
		store, err := newStore()
		if err != nil {
			return err
		}
		if i == 0 {
			// Hierarchical LLC.
			mgr, err := NewManager(spec, opts.Config())
			if err != nil {
				return err
			}
			rec, err := mgr.Run(store, SessionConfig{Trace: trace})
			if err != nil {
				return err
			}
			rows[i] = EnergyRow{Policy: "hierarchical-llc", Totals: rec.Totals}
			return priceRow(&rows[i])
		}
		bcfg := DefaultBaselineConfig()
		bcfg.Seed = opts.Seed
		res, err := RunBaseline(spec, baselines[i-1], trace, store, bcfg)
		if err != nil {
			return err
		}
		rows[i] = EnergyRow{Policy: res.Policy, Totals: res.Totals}
		return priceRow(&rows[i])
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunScenario runs the hierarchical LLC controller on the §4.3 module
// under the scenario named by opts.Scenario (empty = "synthetic"): the
// arrival trace is built from opts.Seed, amplitude-scaled to the module
// per the scenario's reference cluster size, trimmed by opts.Scale, and
// the scenario's service-time mix and failure plan are applied.
func RunScenario(opts ExperimentOptions) (*Record, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	name := opts.Scenario
	if name == "" {
		name = "synthetic"
	}
	sc, err := workload.LookupScenario(name)
	if err != nil {
		return nil, err
	}
	spec, err := StandardModuleCluster()
	if err != nil {
		return nil, err
	}
	trace, err := sc.Trace(opts.Seed)
	if err != nil {
		return nil, err
	}
	sc.ScaleToCluster(trace, spec.Computers())
	trace = opts.scaleTrace(trace)
	mgr, err := NewManager(spec, opts.Config())
	if err != nil {
		return nil, err
	}
	store, err := NewStore(opts.Seed, sc.StoreConfig())
	if err != nil {
		return nil, err
	}
	return mgr.Run(store, SessionConfig{Trace: trace, Failures: sc.FailurePlan(trace)})
}

// ScenarioCell is one cell of the robustness matrix: one policy's outcome
// under one registered scenario. All fields are deterministic per seed —
// wall-clock quantities are deliberately absent so the serialized matrix
// (BENCH_scenarios.json) is bit-identical across regenerations at any
// GOMAXPROCS.
type ScenarioCell struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	// Bins is the trace length the cell ran (after the MaxBins budget).
	Bins      int   `json:"bins"`
	Completed int64 `json:"completed"`
	Dropped   int64 `json:"dropped"`
	// Energy and Switches are the power-management outcomes; MeanResponse
	// and ViolationFrac the QoS outcomes (violations are the fraction of
	// control periods above r*).
	Energy        float64 `json:"energy"`
	Switches      int     `json:"switches"`
	MeanResponse  float64 `json:"meanResponse"`
	ViolationFrac float64 `json:"violationFrac"`
	// ExploredPerPeriod is the §4.3 controller-overhead metric: states
	// examined per decision period (0 for the search-free threshold
	// policy).
	ExploredPerPeriod float64 `json:"exploredPerPeriod"`
}

// ScenarioMatrixOptions tunes RunScenarioMatrix. The zero value is not
// valid; start from DefaultScenarioMatrixOptions.
type ScenarioMatrixOptions struct {
	// Seed drives every cell's randomness; the whole matrix is
	// deterministic per seed.
	Seed int64
	// MaxBins budgets each cell's trace length so the full matrix stays
	// affordable: traces longer than MaxBins bins are trimmed to their
	// leading MaxBins (scenarios place their structure — spikes, storms —
	// inside the default budget).
	MaxBins int
	// Fast selects the coarse learning grids (the benchmark setting).
	Fast bool
}

// DefaultScenarioMatrixOptions returns the canonical matrix configuration
// — the one the committed BENCH_scenarios.json snapshot is generated with.
func DefaultScenarioMatrixOptions() ScenarioMatrixOptions {
	return ScenarioMatrixOptions{Seed: 1, MaxBins: 160, Fast: true}
}

// ScenarioMatrixPolicies are the controllers each scenario is run under:
// the paper's hierarchy, the Pinheiro-style threshold baseline, and the
// flat centralized controller of EXT3.
func ScenarioMatrixPolicies() []string {
	return []string{"hierarchical-llc", "threshold", "centralized"}
}

// ScenarioMatrixSnapshot is the BENCH_scenarios.json payload: the matrix
// configuration and one cell per (scenario, policy) pair, scenarios in
// registry order. Serialization is bit-identical across regenerations with
// the same options at any GOMAXPROCS.
type ScenarioMatrixSnapshot struct {
	Seed      int64          `json:"seed"`
	MaxBins   int            `json:"maxBins"`
	Fast      bool           `json:"fast"`
	Policies  []string       `json:"policies"`
	Scenarios []string       `json:"scenarios"`
	Cells     []ScenarioCell `json:"cells"`
}

// RunScenarioMatrix runs the robustness matrix: every registered,
// parameter-free scenario (see workload.Scenarios) under every matrix
// policy on the §4.3 module, reporting QoS violations, energy, and search
// overhead per cell. Cells are independent closed-loop runs fanned across
// GOMAXPROCS workers; order and contents match the sequential sweep
// exactly.
func RunScenarioMatrix(opts ScenarioMatrixOptions) (*ScenarioMatrixSnapshot, error) {
	if opts.MaxBins < 16 {
		return nil, fmt.Errorf("hierctl: matrix bin budget %d < 16", opts.MaxBins)
	}
	var scens []workload.Scenario
	for _, sc := range workload.Scenarios() {
		if !sc.NeedsArg {
			scens = append(scens, sc)
		}
	}
	policies := ScenarioMatrixPolicies()
	snap := &ScenarioMatrixSnapshot{
		Seed:     opts.Seed,
		MaxBins:  opts.MaxBins,
		Fast:     opts.Fast,
		Policies: policies,
	}
	for _, sc := range scens {
		snap.Scenarios = append(snap.Scenarios, sc.Name)
	}
	cells, err := par.Map(par.Workers(0), len(scens)*len(policies), func(i int) (ScenarioCell, error) {
		sc, policy := scens[i/len(policies)], policies[i%len(policies)]
		c, err := runMatrixCell(sc, nil, policy, opts.Seed, opts.MaxBins, opts.Fast)
		if err != nil {
			return ScenarioCell{}, fmt.Errorf("hierctl: scenario %s under %s: %w", sc.Name, policy, err)
		}
		return ScenarioCell{
			Scenario: sc.Name, Policy: policy, Bins: c.bins,
			Completed: c.Completed, Dropped: c.Dropped,
			Energy: c.Energy, Switches: c.Switches,
			MeanResponse: c.MeanResponse, ViolationFrac: c.ViolationFrac,
			ExploredPerPeriod: c.exploredPerPeriod,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	snap.Cells = cells
	return snap, nil
}

// matrixCell is one closed-loop run's outcome, the union of what the two
// matrices report; each projects the columns its snapshot carries.
type matrixCell struct {
	bins int
	engine.Totals
	exploredPerPeriod float64
}

// runMatrixCell runs one matrix cell — one policy over one scenario on the
// §4.3 module, under the sensor-fault plan buildChaos materializes for the
// run's span. A nil buildChaos is the scenario-matrix case: the empty plan,
// which is bit-identical to never injecting one (TestChaosZeroFault*).
// Every policy sees the identical trace (trimmed to maxBins), store
// configuration, failure plan and fault plan, so rows compare control
// strategies, not inputs.
func runMatrixCell(sc workload.Scenario, buildChaos func(seed int64, span float64) chaos.Plan, policy string, seed int64, maxBins int, fast bool) (matrixCell, error) {
	spec, err := StandardModuleCluster()
	if err != nil {
		return matrixCell{}, err
	}
	trace, err := sc.Trace(seed)
	if err != nil {
		return matrixCell{}, err
	}
	sc.ScaleToCluster(trace, spec.Computers())
	if trace.Len() > maxBins {
		trace = trace.Slice(0, maxBins)
	}
	failures := sc.FailurePlan(trace)
	var plan chaos.Plan
	if buildChaos != nil {
		plan = buildChaos(seed, float64(trace.Len())*trace.Step)
	}
	store, err := NewStore(seed, sc.StoreConfig())
	if err != nil {
		return matrixCell{}, err
	}
	cell := matrixCell{bins: trace.Len()}
	switch policy {
	case "hierarchical-llc":
		// Cells already fan out; a learning pool per manager on top would
		// oversubscribe the scheduler (results are identical either way).
		cfg := ExperimentOptions{Scale: 1, Seed: seed, Fast: fast}.Config()
		cfg.Parallelism = 1
		mgr, err := NewManager(spec, cfg)
		if err != nil {
			return matrixCell{}, err
		}
		rec, err := mgr.Run(store, SessionConfig{Trace: trace, Failures: failures, Chaos: plan})
		if err != nil {
			return matrixCell{}, err
		}
		cell.Totals = rec.Totals
		cell.exploredPerPeriod = rec.ExploredPerL1Decision()
	case "threshold":
		pol, err := ThresholdPolicy(0.35, 0.8, 1)
		if err != nil {
			return matrixCell{}, err
		}
		bcfg := DefaultBaselineConfig()
		bcfg.Seed = seed
		bcfg.Failures = failures
		bcfg.Chaos = plan
		res, err := RunBaseline(spec, pol, trace, store, bcfg)
		if err != nil {
			return matrixCell{}, err
		}
		cell.Totals = res.Totals
	case "centralized":
		ccfg := central.DefaultRunnerConfig()
		ccfg.Seed = seed
		ccfg.Failures = failures
		ccfg.Chaos = plan
		if fast {
			ccfg.Controller.NeighbourDepth = 1
		}
		res, err := central.Run(spec, trace, store, ccfg)
		if err != nil {
			return matrixCell{}, err
		}
		cell.Totals = res.Totals
		cell.exploredPerPeriod = res.ExploredPerStep
	default:
		return matrixCell{}, fmt.Errorf("unknown matrix policy %q", policy)
	}
	return cell, nil
}

// ChaosCell is one cell of the degraded-mode matrix: one policy's outcome
// under one registered sensor-fault plan on a fixed scenario. Like the
// scenario matrix, wall-clock quantities are deliberately absent so the
// serialized matrix (BENCH_chaos.json) is bit-identical across
// regenerations at any GOMAXPROCS.
type ChaosCell struct {
	Plan   string `json:"plan"`
	Policy string `json:"policy"`
	// Bins is the trace length the cell ran (after the MaxBins budget).
	Bins      int   `json:"bins"`
	Completed int64 `json:"completed"`
	Dropped   int64 `json:"dropped"`
	// Energy and Switches are the power-management outcomes; MeanResponse
	// and ViolationFrac the QoS outcomes under the injected faults.
	Energy        float64 `json:"energy"`
	Switches      int     `json:"switches"`
	MeanResponse  float64 `json:"meanResponse"`
	ViolationFrac float64 `json:"violationFrac"`
	// DegradedTicks counts control periods decided through the
	// deterministic fallback — always 0 for the search-free threshold
	// policy and the deadline-free centralized controller.
	DegradedTicks int `json:"degradedTicks"`
	// StaleObservations and SanitizedRejects are the engine sanitizer's
	// counters: module observations held at the last good value, and
	// observations rejected as invalid (NaN/negative/dropped).
	StaleObservations int64 `json:"staleObservations"`
	SanitizedRejects  int64 `json:"sanitizedRejects"`
}

// ChaosMatrixOptions tunes RunChaosMatrix. The zero value is not valid;
// start from DefaultChaosMatrixOptions.
type ChaosMatrixOptions struct {
	// Seed drives every cell's randomness (workload, dispatch, and the
	// fault plans themselves); the whole matrix is deterministic per seed.
	Seed int64
	// MaxBins budgets each cell's trace length (trimmed to the leading
	// MaxBins bins), like the scenario matrix's budget.
	MaxBins int
	// Fast selects the coarse learning grids (the benchmark setting).
	Fast bool
	// Scenario names the registered workload every cell runs — the matrix
	// varies the fault plan, not the load shape.
	Scenario string
}

// DefaultChaosMatrixOptions returns the canonical matrix configuration —
// the one the committed BENCH_chaos.json snapshot is generated with. The
// flashcrowd scenario gives the faults a demanding backdrop: a load spike
// mid-trace punishes a controller that mishandles corrupted observations.
func DefaultChaosMatrixOptions() ChaosMatrixOptions {
	return ChaosMatrixOptions{Seed: 1, MaxBins: 160, Fast: true, Scenario: "flashcrowd"}
}

// ChaosMatrixPolicies are the controllers each fault plan is run under —
// the same three strategies as the scenario matrix.
func ChaosMatrixPolicies() []string {
	return []string{"hierarchical-llc", "threshold", "centralized"}
}

// ChaosMatrixSnapshot is the BENCH_chaos.json payload: the matrix
// configuration and one cell per (plan, policy) pair, plans in registry
// order. Serialization is bit-identical across regenerations with the
// same options at any GOMAXPROCS.
type ChaosMatrixSnapshot struct {
	Seed     int64       `json:"seed"`
	MaxBins  int         `json:"maxBins"`
	Fast     bool        `json:"fast"`
	Scenario string      `json:"scenario"`
	Policies []string    `json:"policies"`
	Plans    []string    `json:"plans"`
	Cells    []ChaosCell `json:"cells"`
}

// RunChaosMatrix runs the degraded-mode matrix: every registered chaos
// plan (see ChaosPlans) under every matrix policy on the §4.3 module over
// one fixed scenario, reporting QoS and the degraded-input/fallback
// counters per cell. Cells are independent closed-loop runs fanned across
// GOMAXPROCS workers; order and contents match the sequential sweep
// exactly — the "none" plan row doubles as the pinned healthy baseline.
func RunChaosMatrix(opts ChaosMatrixOptions) (*ChaosMatrixSnapshot, error) {
	if opts.MaxBins < 16 {
		return nil, fmt.Errorf("hierctl: matrix bin budget %d < 16", opts.MaxBins)
	}
	sc, err := workload.LookupScenario(opts.Scenario)
	if err != nil {
		return nil, err
	}
	if sc.NeedsArg {
		return nil, fmt.Errorf("hierctl: chaos matrix scenario %q needs an argument; pick a parameter-free scenario", opts.Scenario)
	}
	plans := chaos.Specs()
	policies := ChaosMatrixPolicies()
	snap := &ChaosMatrixSnapshot{
		Seed:     opts.Seed,
		MaxBins:  opts.MaxBins,
		Fast:     opts.Fast,
		Scenario: opts.Scenario,
		Policies: policies,
	}
	for _, p := range plans {
		snap.Plans = append(snap.Plans, p.Name)
	}
	cells, err := par.Map(par.Workers(0), len(plans)*len(policies), func(i int) (ChaosCell, error) {
		spec, policy := plans[i/len(policies)], policies[i%len(policies)]
		c, err := runMatrixCell(sc, spec.Build, policy, opts.Seed, opts.MaxBins, opts.Fast)
		if err != nil {
			return ChaosCell{}, fmt.Errorf("hierctl: chaos plan %s under %s: %w", spec.Name, policy, err)
		}
		return ChaosCell{
			Plan: spec.Name, Policy: policy, Bins: c.bins,
			Completed: c.Completed, Dropped: c.Dropped,
			Energy: c.Energy, Switches: c.Switches,
			MeanResponse: c.MeanResponse, ViolationFrac: c.ViolationFrac,
			DegradedTicks:     c.DegradedTicks,
			StaleObservations: c.StaleObservations, SanitizedRejects: c.SanitizedRejects,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	snap.Cells = cells
	return snap, nil
}

// AblationRow is one line of the EXT2 ablation table.
type AblationRow struct {
	Label         string
	Energy        float64
	MeanResponse  float64
	ViolationFrac float64
	Switches      int
	ExploredPerL1 float64
}

// RunAblations runs the EXT2 design-choice ablations on the §4.3 module:
// the L0 horizon sweep, chattering mitigation on/off, and the γ quantum
// sweep.
func RunAblations(opts ExperimentOptions) ([]AblationRow, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	spec, err := StandardModuleCluster()
	if err != nil {
		return nil, err
	}
	synth := DefaultSyntheticConfig()
	synth.Seed = opts.Seed
	fullTrace, err := SyntheticTrace(synth)
	if err != nil {
		return nil, err
	}
	trace := opts.scaleTrace(fullTrace)

	type variant struct {
		label  string
		mutate func(*Config)
	}
	variants := []variant{
		{"N_L0=1", func(c *Config) { c.L0.Horizon = 1 }},
		{"N_L0=2", func(c *Config) { c.L0.Horizon = 2 }},
		{"N_L0=3 (paper)", func(c *Config) { c.L0.Horizon = 3 }},
		{"N_L0=4", func(c *Config) { c.L0.Horizon = 4 }},
		{"no-chattering-mitigation", func(c *Config) {
			c.L1.UncertaintySamples = false
			c.L2.UncertaintySamples = false
		}},
		{"quantum=0.10", func(c *Config) { c.L1.Quantum = 0.10 }},
		{"quantum=0.20", func(c *Config) { c.L1.Quantum = 0.20 }},
		{"W=0 (no switch penalty)", func(c *Config) { c.L1.SwitchWeight = 0 }},
		{"oracle-forecast (not realizable)", func(c *Config) { c.OracleForecast = true }},
	}
	// Each variant is an independent closed-loop run; fan them out.
	return par.Map(par.Workers(0), len(variants), func(i int) (AblationRow, error) {
		v := variants[i]
		cfg := opts.Config()
		v.mutate(&cfg)
		mgr, err := NewManager(spec, cfg)
		if err != nil {
			return AblationRow{}, err
		}
		store, err := NewStore(opts.Seed, DefaultStoreConfig())
		if err != nil {
			return AblationRow{}, err
		}
		rec, err := mgr.Run(store, SessionConfig{Trace: trace})
		if err != nil {
			return AblationRow{}, fmt.Errorf("hierctl: ablation %s: %w", v.label, err)
		}
		return AblationRow{
			Label:         v.label,
			Energy:        rec.Energy,
			MeanResponse:  rec.MeanResponse(),
			ViolationFrac: rec.ViolationFrac,
			Switches:      rec.Switches,
			ExploredPerL1: rec.ExploredPerL1Decision(),
		}, nil
	})
}
