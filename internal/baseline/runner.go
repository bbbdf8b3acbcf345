package baseline

import (
	"fmt"
	"math"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/engine"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// A baseline run matches the hierarchy's cadences for a fair comparison:
// it measures and sets frequencies every T_L0 and adapts the on/off count
// every T_L1, under the same boot dead-time. r* serves only the violation
// accounting (the harness's QoSTarget).
const adaptEvery = int(controller.DefaultPeriodL1 / controller.PeriodL0)

// RunnerConfig parameterizes a baseline run.
type RunnerConfig struct {
	// Seed drives dispatch and workload randomness.
	Seed int64
	// Failures is an optional injection plan (scenario failure plans):
	// events are quantized to the next measurement-period boundary and
	// fire ahead of the policy, matching the hierarchical engine's
	// ordering; entries whose (Module, Comp) indices are not in the
	// cluster are skipped.
	Failures []workload.FailureEvent
	// Chaos is an optional sensor-fault plan (see internal/chaos): its
	// faults corrupt what the policy observes, never the plant, and its
	// availability events merge into Failures. DecisionBudget is ignored
	// — the threshold policies run no lookahead search. An empty plan is
	// bit-identical to no plan.
	Chaos chaos.Plan
}

// DefaultRunnerConfig returns a run at seed 1.
func DefaultRunnerConfig() RunnerConfig {
	return RunnerConfig{Seed: 1}
}

// Result summarizes a baseline run with the same quantities the
// hierarchical Record reports, so EXT1 tables can be built side by side:
// the harness's run outcome plus the two series the runner records.
type Result struct {
	Policy string
	engine.Totals
	Operational  *series.Series // per adaptation period
	ResponseMean *series.Series // per measurement period
}

// runner adapts a flat Policy onto the shared simulation engine: it keeps
// the measurement state the policy observes (utilization, arrival rate,
// c-hat) and performs the actuation — power toggles and frequency picks —
// the legacy step loop did, in the same order.
type runner struct {
	spec   cluster.Spec
	policy Policy

	plant *cluster.Plant
	slots []slot
	total int

	cHat     float64
	lastRate float64
	lastUtil float64

	// budget caps operational computers when a cross-cluster L3 layer
	// imposes one (engine.Budgeted); 0 means uncapped.
	budget int

	res *Result
}

type slot struct{ i, j int }

// Name implements engine.Policy.
func (r *runner) Name() string { return r.policy.Name() }

// SetBudget implements engine.Budgeted: an L3 layer caps how many
// computers this cluster may keep operational.
func (r *runner) SetBudget(maxOperational int) { r.budget = maxOperational }

// Init implements engine.Policy: the plant arrives warm (all-on at full
// speed, pre-roll done); the adapter flattens the cluster — the policies
// are module-agnostic — and seeds the result series on the pre-roll.
func (r *runner) Init(p *cluster.Plant) error {
	r.plant = p
	preroll := p.Now()
	for i := range r.spec.Modules {
		for j := range r.spec.Modules[i].Computers {
			r.slots = append(r.slots, slot{i, j})
		}
	}
	r.total = len(r.slots)
	r.res = &Result{
		Policy:       r.policy.Name(),
		Operational:  series.New(preroll, controller.DefaultPeriodL1, 0),
		ResponseMean: series.New(preroll, controller.PeriodL0, 0),
	}
	r.cHat = workload.DefaultCHat
	return nil
}

// Decide implements engine.Policy: adaptation (on/off per the policy's
// watermark rule plus frequency targets) at the adaptation cadence, and
// uniform dispatch fractions across fully-on computers for the tick's
// arrivals.
func (r *runner) Decide(k, pending int) (engine.Settings, error) {
	if k%adaptEvery == 0 {
		act := r.policy.Decide(Observation{
			Operational: r.plant.OperationalComputers(),
			Total:       r.total,
			Utilization: r.lastUtil,
			ArrivalRate: r.lastRate,
			CHat:        r.cHat,
		})
		want := act.Operational
		if want < 1 {
			want = 1
		}
		if want > r.total {
			want = r.total
		}
		if r.budget > 0 && want > r.budget {
			want = r.budget
		}
		wantOn := want
		on := 0
		for _, s := range r.slots {
			comp := r.plant.Computer(s.i, s.j)
			operational := comp.Accepting()
			switch {
			case on < wantOn && !operational && comp.State() != cluster.Failed:
				if err := r.plant.PowerOn(s.i, s.j); err != nil {
					return engine.Settings{}, err
				}
				on++
			case on < wantOn && operational:
				on++
			case on >= wantOn && operational:
				if err := r.plant.PowerOff(s.i, s.j); err != nil {
					return engine.Settings{}, err
				}
			}
		}
		r.res.Operational.Values = append(r.res.Operational.Values, float64(r.plant.OperationalComputers()))
		// Frequency targets for the coming period.
		perComp := r.lastRate / math.Max(1, float64(r.plant.OperationalComputers()))
		for _, s := range r.slots {
			comp := r.plant.Computer(s.i, s.j)
			if !comp.Serving() && comp.State() != cluster.Booting {
				continue
			}
			spec := comp.Spec()
			idx := phiFor(spec.PhiLadder(), perComp, r.cHat, spec.SpeedFactor, act.PhiTarget)
			if err := comp.SetFrequencyIndex(idx); err != nil {
				return engine.Settings{}, err
			}
		}
	}

	if pending == 0 {
		return engine.Settings{}, nil
	}
	// Dispatch uniformly across fully-on computers.
	gm := make([]float64, len(r.spec.Modules))
	gc := make([][]float64, len(r.spec.Modules))
	for i := range r.spec.Modules {
		gc[i] = make([]float64, len(r.spec.Modules[i].Computers))
	}
	for _, s := range r.slots {
		if r.plant.Computer(s.i, s.j).State() == cluster.PowerOn {
			gc[s.i][s.j] = 1
			gm[s.i]++
		}
	}
	return engine.Settings{GammaModules: gm, GammaComputers: gc}, nil
}

// Observe implements engine.Policy: fold the period's harvest into the
// measurement state (arrival rate, utilization, c-hat EWMA).
func (r *runner) Observe(k int, iv engine.Interval, stats []engine.ModuleStats) error {
	busySum := 0.0
	for i, st := range stats {
		busySum += st.Agg.Busy * float64(len(r.spec.Modules[i].Computers))
	}
	r.lastRate = float64(iv.Arrived) / controller.PeriodL0
	if op := r.plant.OperationalComputers(); op > 0 {
		// Utilization over operational computers only.
		r.lastUtil = busySum / float64(op)
		if r.lastUtil > 1 {
			r.lastUtil = 1
		}
	}
	if iv.Completed > 0 {
		r.cHat = 0.9*r.cHat + 0.1*iv.DemandMass/float64(iv.Completed)
	}
	r.res.ResponseMean.Values = append(r.res.ResponseMean.Values, iv.MeanResponse())
	return nil
}

// Run simulates the policy against the plant for the whole trace. The
// trace bin width must be an integer multiple of the measurement period.
// Computers are powered in spec order; dispatch is uniform across serving
// computers (the flat policies have no notion of per-computer fractions).
//
// Run is a thin adapter over the shared simulation engine: the harness
// owns the clock, pre-roll, request feed, failure schedule, and step loop,
// and calls back into the runner above. Results are bit-identical to the
// package's historical private loop, which survives as the test oracle in
// legacy_oracle_test.go.
func Run(spec cluster.Spec, policy Policy, trace *series.Series, store *workload.Store, cfg RunnerConfig) (*Result, error) {
	h, finalize, err := PrepareEngine(spec, policy, trace, store, cfg)
	if err != nil {
		return nil, err
	}
	if err := h.RunTrace(trace); err != nil {
		return nil, err
	}
	return finalize(), nil
}

// PrepareEngine builds the engine harness for a baseline run without
// advancing it, for shared-clock drivers (engine.MultiCluster) that
// interleave several clusters and impose budgets mid-run; Run is
// PrepareEngine + Harness.RunTrace + finalize. The returned finalize
// assembles the Result once the harness has finished.
func PrepareEngine(spec cluster.Spec, policy Policy, trace *series.Series, store *workload.Store, cfg RunnerConfig) (*engine.Harness, func() *Result, error) {
	if policy == nil {
		return nil, nil, fmt.Errorf("baseline: nil policy")
	}
	if trace == nil || trace.Len() == 0 {
		return nil, nil, fmt.Errorf("baseline: empty trace")
	}
	r := &runner{spec: spec, policy: policy}
	h, err := engine.New(engine.Config{
		Spec:          spec,
		Seed:          cfg.Seed,
		PeriodSeconds: controller.PeriodL0,
		BinSeconds:    trace.Step,
		Start:         trace.Start,
		TotalBins:     trace.Len(),
		DrainSeconds:  engine.DefaultDrainSeconds,
		Failures:      cfg.Failures,
		Chaos:         cfg.Chaos,
		QoSTarget:     controller.TargetResponse,
	}, store, r)
	if err != nil {
		return nil, nil, err
	}
	finalize := func() *Result {
		r.res.Totals = h.Totals()
		return r.res
	}
	return h, finalize, nil
}
