package central

import (
	"fmt"
	"math"
	"time"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/engine"
	"hierctl/internal/forecast"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// RunnerConfig parameterizes a closed-loop run of the flat controller.
type RunnerConfig struct {
	// Controller is the flat controller's configuration.
	Controller Config
	// DefaultCHat seeds the processing-time estimate.
	DefaultCHat float64
	// CHatSmoothing is the EWMA constant.
	CHatSmoothing float64
	// BandSmoothing is the uncertainty-band EWMA constant.
	BandSmoothing float64
	// Seed drives dispatch and workload randomness.
	Seed int64
	// DrainSeconds extends the run so in-flight work completes.
	DrainSeconds float64
	// Failures is an optional injection plan (scenario failure plans):
	// events are quantized to the next sub-period boundary and fire
	// ahead of the controller, matching the hierarchical engine's
	// ordering; entries whose (Module, Comp) indices are not in the
	// cluster are skipped.
	Failures []workload.FailureEvent
	// Chaos is an optional sensor-fault plan (see internal/chaos): its
	// faults corrupt what the controller observes, never the plant, and
	// its availability events merge into Failures. DecisionBudget is
	// ignored — the flat controller's exhaustive search carries no
	// deadline fallback. An empty plan is bit-identical to no plan.
	Chaos chaos.Plan
}

// DefaultRunnerConfig mirrors the hierarchy's cadences.
func DefaultRunnerConfig() RunnerConfig {
	return RunnerConfig{
		Controller:    DefaultConfig(),
		DefaultCHat:   0.0175,
		CHatSmoothing: 0.1,
		BandSmoothing: 0.25,
		Seed:          1,
		DrainSeconds:  300,
	}
}

// Result summarizes a flat-controller run: the harness's run outcome (the
// hierarchy-comparable quantities) plus the overhead counters the
// scalability study needs.
type Result struct {
	engine.Totals
	ExploredPerStep   float64
	DecideTimePerStep time.Duration // mean wall-clock of one Decide
	Operational       *series.Series
}

// runner adapts the flat controller onto the shared simulation engine,
// holding the estimator chain (Kalman arrival forecast, uncertainty band,
// processing-time EWMA) and the queue/gamma state the controller observes.
type runner struct {
	spec cluster.Spec
	cfg  RunnerConfig

	ctl    *Controller
	kalman *forecast.Kalman
	band   *forecast.Band
	cEst   *forecast.EWMA

	plant *cluster.Plant
	slots []slot

	decideEvery   int
	queues        []float64
	gamma         []float64
	arrivedPeriod int
	cHat          float64

	res *Result
}

type slot struct{ i, j int }

// Name implements engine.Policy.
func (r *runner) Name() string { return "centralized" }

// Init implements engine.Policy: the plant arrives warm; the adapter
// flattens the cluster and seeds the controller-visible state.
func (r *runner) Init(p *cluster.Plant) error {
	r.plant = p
	for i := range r.spec.Modules {
		for j := range r.spec.Modules[i].Computers {
			r.slots = append(r.slots, slot{i, j})
		}
	}
	tl0 := r.cfg.Controller.SubPeriodSeconds
	r.decideEvery = int(r.cfg.Controller.PeriodSeconds/tl0 + 0.5)
	r.res = &Result{Operational: series.New(p.Now(), r.cfg.Controller.PeriodSeconds, 0)}
	r.queues = make([]float64, len(r.slots))
	r.gamma = append([]float64(nil), r.ctl.prevGamma...)
	r.cHat = r.cfg.DefaultCHat
	return nil
}

// Decide implements engine.Policy: at the controller period the estimator
// chain updates and the exhaustive controller picks the joint
// (alpha, gamma, phi) setting, which is actuated immediately; every
// sub-period the tick's arrivals dispatch under the current fractions.
func (r *runner) Decide(k, pending int) (engine.Settings, error) {
	if k%r.decideEvery == 0 {
		if k > 0 {
			prior := r.kalman.Observe(float64(r.arrivedPeriod))
			if r.kalman.Steps() > 1 {
				r.band.Observe(prior, float64(r.arrivedPeriod))
			}
			r.arrivedPeriod = 0
		}
		avail := make([]bool, len(r.slots))
		for idx, s := range r.slots {
			avail[idx] = r.plant.Computer(s.i, s.j).State() != cluster.Failed
		}
		dec, err := r.ctl.Decide(Observation{
			QueueLens: r.queues,
			LambdaHat: math.Max(0, r.kalman.Forecast(1)) / r.cfg.Controller.PeriodSeconds,
			Delta:     r.band.Delta() / r.cfg.Controller.PeriodSeconds,
			CHat:      r.cHat,
			Available: avail,
		})
		if err != nil {
			return engine.Settings{}, err
		}
		for idx, s := range r.slots {
			operational := r.plant.Computer(s.i, s.j).Accepting()
			if dec.Alpha[idx] && !operational {
				if err := r.plant.PowerOn(s.i, s.j); err != nil {
					return engine.Settings{}, err
				}
			}
			if !dec.Alpha[idx] && operational {
				if err := r.plant.PowerOff(s.i, s.j); err != nil {
					return engine.Settings{}, err
				}
			}
			if err := r.plant.SetFrequency(s.i, s.j, dec.FreqIdx[idx]); err != nil {
				return engine.Settings{}, err
			}
		}
		r.gamma = dec.Gamma
		r.res.Operational.Values = append(r.res.Operational.Values, float64(r.plant.OperationalComputers()))
	}

	if pending == 0 {
		return engine.Settings{}, nil
	}
	// Dispatch per the joint fractions, zeroing non-serving targets.
	gm := make([]float64, len(r.spec.Modules))
	gc := make([][]float64, len(r.spec.Modules))
	for i := range r.spec.Modules {
		gc[i] = make([]float64, len(r.spec.Modules[i].Computers))
	}
	for idx, s := range r.slots {
		if r.plant.Computer(s.i, s.j).State() == cluster.PowerOn {
			gc[s.i][s.j] = r.gamma[idx]
			gm[s.i] += r.gamma[idx]
		}
	}
	return engine.Settings{GammaModules: gm, GammaComputers: gc}, nil
}

// Observe implements engine.Policy: fold the sub-period's harvest into the
// queue snapshot, arrival accumulator and processing-time EWMA.
func (r *runner) Observe(k int, iv engine.Interval, stats []engine.ModuleStats) error {
	qi := 0
	for _, st := range stats {
		for _, p := range st.Per {
			r.queues[qi] = float64(p.QueueLen)
			qi++
		}
	}
	r.arrivedPeriod += iv.Arrived
	if iv.Completed > 0 {
		if r.cEst.Observe(iv.DemandMass / float64(iv.Completed)); r.cEst.Started() {
			r.cHat = r.cEst.Value()
		}
	}
	return nil
}

// Run simulates the flat controller against the plant for the whole
// trace. The trace bin width must be an integer multiple of the
// controller's sub-period.
//
// Run is a thin adapter over the shared simulation engine (see
// internal/engine): the harness owns the mechanics, the runner above owns
// the control. Results are bit-identical to the package's historical
// private loop, kept as the oracle in legacy_oracle_test.go.
func Run(spec cluster.Spec, trace *series.Series, store *workload.Store, cfg RunnerConfig) (*Result, error) {
	if err := cfg.Controller.Validate(); err != nil {
		return nil, err
	}
	if trace == nil || trace.Len() == 0 {
		return nil, fmt.Errorf("central: empty trace")
	}
	var specs []cluster.ComputerSpec
	for i := range spec.Modules {
		specs = append(specs, spec.Modules[i].Computers...)
	}
	ctl, err := New(cfg.Controller, specs)
	if err != nil {
		return nil, err
	}
	kalman, err := forecast.NewKalman(1, 0.1, 10)
	if err != nil {
		return nil, err
	}
	if tuned, _, err := forecast.TuneKalman(trace.Values[:min(len(trace.Values), max(8, trace.Len()/5))]); err == nil {
		ql, qt, ro := tuned.Params()
		if kalman, err = forecast.NewKalman(ql, qt, ro); err != nil {
			return nil, err
		}
	}
	band, err := forecast.NewBand(cfg.BandSmoothing)
	if err != nil {
		return nil, err
	}
	cEst, err := forecast.NewEWMA(cfg.CHatSmoothing)
	if err != nil {
		return nil, err
	}

	r := &runner{spec: spec, cfg: cfg, ctl: ctl, kalman: kalman, band: band, cEst: cEst}
	h, err := engine.New(engine.Config{
		Spec:          spec,
		Seed:          cfg.Seed,
		PeriodSeconds: cfg.Controller.SubPeriodSeconds,
		BinSeconds:    trace.Step,
		Start:         trace.Start,
		TotalBins:     trace.Len(),
		DrainSeconds:  cfg.DrainSeconds,
		Failures:      cfg.Failures,
		Chaos:         cfg.Chaos,
		QoSTarget:     cfg.Controller.TargetResponse,
	}, store, r)
	if err != nil {
		return nil, err
	}
	if err := h.RunTrace(trace); err != nil {
		return nil, err
	}
	res := r.res
	res.Totals = h.Totals()
	explored, decisions, compute := ctl.Overhead()
	if decisions > 0 {
		res.ExploredPerStep = float64(explored) / float64(decisions)
		res.DecideTimePerStep = compute / time.Duration(decisions)
	}
	return res, nil
}
