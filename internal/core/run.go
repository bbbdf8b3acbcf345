package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/engine"
	"hierctl/internal/forecast"
	"hierctl/internal/llc"
	"hierctl/internal/obs"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// errPanic wraps a panic recovered from a controller's search so the
// degraded-tick fallback can treat it like an exhausted decision budget.
// Any other error still aborts the run.
var errPanic = errors.New("core: recovered controller panic")

// degradable reports whether a controller error may be absorbed by the
// deterministic fallback path instead of aborting the run: an exhausted
// decision budget (llc.ErrBudget) or a recovered panic.
func degradable(err error) bool {
	return errors.Is(err, llc.ErrBudget) || errors.Is(err, errPanic)
}

// Run simulates the hierarchy against the plant for the whole of sc.Trace,
// which is required, and returns the recorded results. The trace's bin
// width must be an integer multiple of T_L0. The run is deterministic for
// a given (spec, config, store, sc) tuple.
//
// Run is the batch replay built on the incremental session engine: it
// opens NewSession(store, sc) and streams the trace's bins through it, so
// batch replays and online operation share one code path.
func (m *Manager) Run(store *workload.Store, sc SessionConfig) (*Record, error) {
	if sc.Trace == nil || sc.Trace.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	s, err := m.NewSession(store, sc)
	if err != nil {
		return nil, err
	}
	for _, count := range sc.Trace.Values {
		if err := s.StepBin(count); err != nil {
			return nil, err
		}
	}
	return s.Finish()
}

// run is the hierarchy's engine.Policy adapter: the shared harness
// (internal/engine) owns the clock, request feed, failure schedule,
// dispatch, and plant advance; run owns the L2/L1/L0 control flow and the
// record. Decide runs the three levels at their cadences and returns the
// dispatch fractions; Observe folds the harvested interval back into the
// estimators.
type run struct {
	m *Manager
	// The hierarchy this run steps, built by build from m's learned
	// artifacts: one assembly per module, and the L2 and the cluster
	// arrival filter and band (all nil for a single module).
	modules []*moduleAsm
	l2      *controller.L2
	kalmanG *forecast.Kalman // cluster arrivals per T_L2 bin
	bandG   *forecast.Band   // δ at T_L2 granularity
	// recorder is the flight recorder the manager had attached when the
	// run was built (nil = off).
	recorder *obs.Recorder
	// sc is the controllers' working memory while a bin steps, nil between
	// bins: the Scratch of whoever steps the session (see
	// Session.StepBinIn), never the run's own.
	sc *controller.Scratch
	// tally counts the bin's decisions while it steps, nil when nobody
	// counts them (see Session.StepBinIn).
	tally *Tally

	trace   *series.Series // full trace when known up front; nil when streaming
	sub     int            // T_L0 bins per observation bin
	tl0     float64
	binStep float64 // observation bin width in seconds
	start0  float64 // workload-clock time of the first bin
	l1Every int
	l2Every int

	// totalSteps is trace.Len()*sub when the trace is known (bounds the
	// oracle lookups); 0 when streaming.
	totalSteps int

	plant *cluster.Plant // set by the harness via Init

	// rec is the run's record. Its series exist only when the trace does
	// (see Record): a streaming run has no end to bound them by.
	rec *Record
	// respWindow holds the current observation bin's per-tick mean
	// response times, slot k % sub — what refreshDecision averages.
	respWindow []float64

	// freqIdx is the last L0 frequency decision per computer (-1 while
	// off or failed), captured for the per-bin decision payload.
	freqIdx [][]int
	// freqSeries is rec.FreqByComputer by (module, computer), resolved once
	// in initSeries; nil when the frequencies are not recorded.
	freqSeries [][]*series.Series

	// gammaModules is the module split in force, its only copy: [1] with
	// one module, else controller.EqualSplit's, then each L2 decision's.
	gammaModules []float64
	// lambdaGRate is the cluster arrival-rate forecast at the last L2
	// boundary (requests/second), used as a floor for module forecasts
	// right after reallocations.
	lambdaGRate float64
	// predActual collects (predicted, actual) L1-level arrival pairs,
	// one per module per T_L1 boundary, for the Fig. 4 series (trace runs
	// only).
	predActual [][2]float64

	arrivedTL2 int // cluster arrivals this T_L2 period, counted with an L2

	// L2 observation scratch, sized by build (nil without an L2) and
	// reused across periods (the controller reads, never retains it).
	l2QAvg  []float64
	l2CHat  []float64
	l2Avail []bool

	// weights is Decide's dispatch scratch, sized once in build and reused
	// every tick. The harness hands it to Plant.Dispatch, which reads and
	// never retains it.
	weights [][]float64

	// last is the decision in force after the most recent cleanly applied
	// bin, refreshed in place by refreshDecision (see Session.Decision).
	last BinDecision

	// l1Failpoint and observeFailpoint are test seams (see
	// Session.SetL1Failpoint and Session.SetObserveFailpoint). Never
	// serialized; nil in production.
	l1Failpoint      func(module, tick int)
	observeFailpoint func(tick int)
}

// moduleAsm bundles one module's controllers and estimators within a run.
type moduleAsm struct {
	specs []cluster.ComputerSpec
	l1    *controller.L1
	l0s   []*controller.L0

	kalman0 *forecast.Kalman // module arrivals per T_L0 bin
	kalman1 *forecast.Kalman // module arrivals per T_L1 bin
	band    *forecast.Band   // δ at T_L1 granularity
	band0   *forecast.Band   // δ at T_L0 granularity (L0 burst hedging)
	cEst    *forecast.EWMA

	// The module's decision in force, the only copy of it.
	alpha []bool
	gamma []float64

	lastPer []cluster.IntervalStats
	lastAgg cluster.IntervalStats

	arrivedTL1   int
	predictedTL1 float64

	// pendingRatio rescales the module's own arrival forecast right
	// after the L2 reallocates fractions: the module filter has only
	// seen arrivals under the old γ_i, but λ_i = γ_i·λ_g (Fig. 2b), so
	// the known new share adjusts the forecast until the filter catches
	// up. 1 means no pending reallocation: the L1 plan of the tick whose
	// L2 decision set it takes it, so a checkpoint needs no copy.
	pendingRatio float64
	// l0Ratio carries the same correction down to the L0 frequency
	// controllers for the remainder of the L1 period, since their
	// per-T_L0 filter lags reallocations just the same. Without an L2 no
	// correction is pending, and it stays exactly 1.
	l0Ratio float64

	// Observation scratch, sized by build and reused across control
	// periods: the controllers read their observation slices and never
	// retain them, so the decision loop stays allocation-free (the tick
	// invariant — see the controller package doc).
	obsQueues []float64
	obsAvail  []bool
	l0Lambda  []float64
}

// capacities returns relative capacity weights used for seed allocations.
func capacities(specs []cluster.ComputerSpec) []float64 {
	out := make([]float64, len(specs))
	for j, s := range specs {
		out[j] = s.SpeedFactor
	}
	return out
}

// Name implements engine.Policy.
func (r *run) Name() string { return "hierarchical-llc" }

// Decide implements engine.Policy: one T_L0 control period at step index
// k. The failure schedule has already fired for this boundary (the
// harness applies it ahead of the controllers, matching the event
// calendar's replay order); the returned fractions dispatch this step's
// arrivals.
//
//hpm:hotpath
func (r *run) Decide(k, pending int) (engine.Settings, error) {
	degraded := false

	// (1) L2: redistribute load across modules. A budget trip or panic
	// leaves the previous split in force (decideL2 errors before it
	// mutates L2 state); the fallback only re-appends the series sample
	// so the record cadence is preserved.
	if r.l2 != nil && k%r.l2Every == 0 {
		if err := r.decideL2(k); err != nil {
			if !degradable(err) {
				return engine.Settings{}, err
			}
			r.recordGammaModules(r.gammaModules)
			degraded = true
		}
	}

	// (2) L1 per module: operating states and within-module fractions,
	// each module planned and applied in turn, in module order. §3's
	// modules decide independently, and the order changes nothing: a
	// module's plan reads only its own estimators and its own computers,
	// and applying it touches only its own computers.
	if k%r.l1Every == 0 {
		for i := range r.modules {
			dec, err := r.planL1(i, k)
			if err != nil {
				if !degradable(err) {
					return engine.Settings{}, err
				}
				// Deterministic safe fallback: every non-failed computer
				// powered, capacity-proportional split — a pure function
				// of the module's plant state, so degraded runs stay
				// reproducible.
				if dec, err = r.fallbackL1(i); err != nil {
					return engine.Settings{}, err
				}
				degraded = true
			}
			if err := r.applyL1(i, dec); err != nil {
				return engine.Settings{}, err
			}
		}
		if s := r.rec.Operational; s != nil {
			s.Values = append(s.Values, float64(r.plant.OperationalComputers()))
		}
	}

	// (3) L0 per computer: frequency for the next period. Budget trips
	// and panics degrade to full speed per computer inside decideL0.
	for i, asm := range r.modules {
		deg, err := r.decideL0(i, asm, k)
		if err != nil {
			return engine.Settings{}, err
		}
		degraded = degraded || deg
	}

	// (4) Dispatch fractions for this step's arrivals. Only computers that
	// are fully on receive weight — booting machines would sit on requests
	// for up to the boot delay; the plant renormalizes the rest.
	if pending == 0 {
		return engine.Settings{Degraded: degraded}, nil
	}
	for i, asm := range r.modules {
		weights := r.weights[i]
		for j := range asm.specs {
			weights[j] = 0
			if r.plant.Computer(i, j).State() == cluster.PowerOn {
				weights[j] = asm.gamma[j]
			}
		}
	}
	return engine.Settings{GammaModules: r.gammaModules, GammaComputers: r.weights, Degraded: degraded}, nil
}

// recoverAs is the decide path's one panic guard: deferred by a level's
// decide, it turns a panic there into an errPanic error naming the level,
// which the degraded-tick fallback absorbs like an exhausted decision
// budget. It must be the deferred call itself — recover stops a panic only
// there.
func recoverAs(err *error, level string) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("%w: %s: %v", errPanic, level, v)
	}
}

// recordGammaModules appends one T_L2 sample to each module's γ series
// (none exist on a streaming run).
func (r *run) recordGammaModules(gamma []float64) {
	for i, s := range r.rec.GammaModules {
		s.Values = append(s.Values, gamma[i])
	}
}

// fallbackL1 computes module i's deterministic threshold-style safe
// decision: every non-failed computer powered, capacity-proportional
// quantized split (all-off when nothing is available, mirroring the L1's
// own degraded path). The result is a pure function of the module's
// plant state; once applied it is the module's decision in force, from
// which the next healthy tick's search starts.
func (r *run) fallbackL1(i int) (controller.L1Decision, error) {
	asm := r.modules[i]
	alpha := make([]bool, len(asm.specs))
	avail := 0
	for j := range asm.specs {
		if r.plant.Computer(i, j).State() != cluster.Failed {
			alpha[j] = true
			avail++
		}
	}
	gamma := make([]float64, len(asm.specs))
	if avail > 0 {
		g, err := controller.SnapSimplex(capacities(asm.specs), alpha, r.m.cfg.L1.Quantum)
		if err != nil {
			return controller.L1Decision{}, err
		}
		gamma = g
	}
	return controller.L1Decision{Alpha: alpha, Gamma: gamma}, nil
}

// decideL2 runs the cluster-level controller and stores its fractions.
// With every module down there is no split to choose: the previous one is
// held exactly as a degraded L2 tick holds it — each module's L1 goes
// all-off on its own — so the run continues and planned repairs land. Such
// a tick is not flagged degraded: the flag marks a controller that could
// not finish its search, and a single-module tenant's all-off L1 decision in
// the same plant state is not flagged either.
func (r *run) decideL2(k int) (err error) {
	defer recoverAs(&err, "L2")
	m := r.m
	// Fold the completed T_L2 interval into the cluster filter and band.
	if k > 0 {
		prior := r.kalmanG.Observe(float64(r.arrivedTL2))
		if r.kalmanG.Steps() > 1 {
			r.bandG.Observe(prior, float64(r.arrivedTL2))
		}
		r.arrivedTL2 = 0
	}
	lambdaG := math.Max(0, r.kalmanG.Forecast(1))
	deltaG := r.bandG.Delta()
	if m.cfg.OracleForecast {
		mean, peak := r.futureProfile(k, r.l2Every)
		lambdaG = mean * float64(r.l2Every)
		deltaG = (peak - mean) * float64(r.l2Every)
	}
	obs := controller.L2Observation{
		QAvg:      r.l2QAvg,
		LambdaHat: lambdaG / m.cfg.L2.PeriodSeconds,
		Delta:     deltaG / m.cfg.L2.PeriodSeconds,
		CHat:      r.l2CHat,
		Available: r.l2Avail,
		Split:     r.gammaModules,
	}
	for i, asm := range r.modules {
		obs.QAvg[i] = float64(asm.lastAgg.QueueLen) / float64(len(asm.specs))
		obs.CHat[i] = r.cHat(asm)
		obs.Available[i] = moduleAvailable(r.plant, i)
	}
	if !slices.Contains(obs.Available, true) {
		r.recordGammaModules(r.gammaModules)
		return nil
	}
	start := r.latencyStart()
	dec, err := r.l2.Decide(r.sc, obs)
	if err != nil {
		return err
	}
	r.countL2(dec, start)
	// Propagate the reallocation to the module forecasts: λ_i = γ_i·λ_g,
	// so a module whose share changed expects arrivals scaled by the
	// share ratio until its own filter has seen the new regime.
	for i, asm := range r.modules {
		ratio := 1.0
		switch {
		case k > 0 && r.gammaModules[i] > 0.01:
			ratio = dec.Gamma[i] / r.gammaModules[i]
		case dec.Gamma[i] > 0:
			ratio = 5 // first decision, or from (near) zero share: trust the γ_i·λ_g floor
		}
		asm.pendingRatio = math.Min(5, math.Max(0.2, ratio))
	}
	r.lambdaGRate = obs.LambdaHat
	r.recordGammaModules(dec.Gamma)
	// The decision is the scratch's until the next L2 Decide in it: keep a
	// copy, made only now that the share ratios above have read the old
	// split.
	copy(r.gammaModules, dec.Gamma)
	return nil
}

// planL1 runs one module's L1 controller, counts and records its decision,
// and appends the boundary's Fig. 4 (predicted, actual) pair. It touches
// only module i's own estimators and reads (never mutates) the shared
// plant. The decision aliases the step's Scratch until the next L1 Decide
// on it — the next module's, after applyL1 copied this one.
func (r *run) planL1(i int, k int) (dec controller.L1Decision, err error) {
	defer recoverAs(&err, "L1")
	m := r.m
	asm := r.modules[i]
	pending := asm.pendingRatio
	asm.pendingRatio = 1

	// Fold the completed T_L1 interval into the module filter and band;
	// asm.predictedTL1 still holds the forecast made at the previous
	// boundary at this point.
	if k > 0 {
		asm.kalman1.Observe(float64(asm.arrivedTL1))
		asm.band.Observe(asm.predictedTL1, float64(asm.arrivedTL1))
		if r.trace != nil {
			r.predActual = append(r.predActual, [2]float64{asm.predictedTL1, float64(asm.arrivedTL1)})
		}
		asm.arrivedTL1 = 0
	}
	asm.predictedTL1 = math.Max(0, asm.kalman1.Forecast(1))
	var oracleDelta float64
	if m.cfg.OracleForecast {
		mean, peak := r.futureProfile(k, r.l1Every)
		asm.predictedTL1 = r.gammaModules[i] * mean * float64(r.l1Every)
		// Perfect information includes the within-period profile: hedge
		// the decision against the true peak sub-period, not a guess.
		oracleDelta = r.gammaModules[i] * (peak - mean) / r.tl0
	}

	queues, avail := asm.obsQueues, asm.obsAvail
	for j := range asm.specs {
		queues[j] = float64(asm.lastPer[j].QueueLen)
		avail[j] = r.plant.Computer(i, j).State() != cluster.Failed
	}
	own := asm.predictedTL1 / m.cfg.L1.PeriodSeconds
	lambdaHat := pending * own
	if r.l2 != nil && !m.cfg.OracleForecast {
		// λ_i = γ_i·λ_g floor right after a reallocation (Fig. 2b).
		if floor := r.gammaModules[i] * r.lambdaGRate; floor > lambdaHat {
			lambdaHat = floor
		}
	}
	if m.cfg.OracleForecast {
		lambdaHat = own
	}
	// Carry the correction down to the L0 filters for this L1 period.
	asm.l0Ratio = 1
	if own > 1e-9 {
		asm.l0Ratio = math.Min(5, math.Max(0.2, lambdaHat/own))
	}
	delta := asm.band.Delta() / m.cfg.L1.PeriodSeconds
	if m.cfg.OracleForecast {
		delta = oracleDelta
	}
	obs := controller.L1Observation{
		QueueLens: queues,
		On:        asm.alpha,
		LambdaHat: lambdaHat,
		Delta:     delta,
		CHat:      r.cHat(asm),
		Available: avail,
	}
	if r.l1Failpoint != nil {
		r.l1Failpoint(i, k)
	}
	start := r.latencyStart()
	if dec, err = asm.l1.Decide(r.sc, obs); err == nil {
		r.countL1(i, dec, start)
	}
	return dec, err
}

// applyL1 commits module i's decision: the plant's on/off switches and
// the module's dispatch fractions.
func (r *run) applyL1(i int, dec controller.L1Decision) error {
	asm := r.modules[i]
	for j := range asm.specs {
		switch on := r.plant.Computer(i, j).Accepting(); {
		case dec.Alpha[j] && !on:
			if err := r.plant.PowerOn(i, j); err != nil {
				return err
			}
		case !dec.Alpha[j] && on:
			if err := r.plant.PowerOff(i, j); err != nil {
				return err
			}
		}
	}
	// The decision is the scratch's until the next L1 Decide in it: keep a
	// copy.
	copy(asm.alpha, dec.Alpha)
	copy(asm.gamma, dec.Gamma)
	return nil
}

// decideL0 runs the frequency controllers of module i at step k. A
// computer whose search trips the decision budget or panics degrades to
// full speed — the threshold-safe setting — and the tick is flagged; any
// other error aborts.
func (r *run) decideL0(i int, asm *moduleAsm, k int) (degraded bool, err error) {
	m := r.m
	cHat := r.cHat(asm)
	for j := range asm.specs {
		if st := r.plant.Computer(i, j).State(); st == cluster.Failed || st == cluster.PowerOff {
			r.freqIdx[i][j] = -1
			r.recordFreq(i, j, 0)
			continue
		}
		lambda := asm.l0Lambda
		for h := range lambda {
			var forecastCount float64
			if m.cfg.OracleForecast {
				mean, _ := r.futureProfile(k+h, 1)
				forecastCount = r.gammaModules[i] * mean
			} else {
				forecastCount = asm.l0Ratio * math.Max(0, asm.kalman0.Forecast(h+1))
			}
			lambda[h] = asm.gamma[j] * forecastCount / r.tl0
		}
		delta := asm.gamma[j] * asm.band0.Delta() / r.tl0
		if m.cfg.OracleForecast {
			delta = 0
		}
		start := r.latencyStart()
		dec, err := searchL0(asm.l0s[j], r.sc, float64(asm.lastPer[j].QueueLen), lambda, delta, cHat)
		idx := dec.FreqIdx
		if err != nil {
			if !degradable(err) {
				return degraded, err
			}
			idx = len(asm.specs[j].FrequenciesHz) - 1
			degraded = true
		} else {
			r.countL0(i, j, dec, start)
		}
		if err := r.plant.SetFrequency(i, j, idx); err != nil {
			return degraded, err
		}
		r.freqIdx[i][j] = idx
		r.recordFreq(i, j, asm.specs[j].FrequenciesHz[idx])
	}
	return degraded, nil
}

// searchL0 is one computer's L0 search under the panic guard, which
// covers the search and never the actuation that follows it.
func searchL0(l0 *controller.L0, sc *controller.Scratch, queueLen float64, lambda []float64, delta, cHat float64) (dec controller.L0Decision, err error) {
	defer recoverAs(&err, "L0")
	return l0.Decide(sc, queueLen, lambda, delta, cHat)
}

// countL2, countL1 and countL0 count a level's decision and explored
// states (the §4.3 overhead) in the record and the step's tally, and write
// its flight records, for a decision that returned only: a tripped or
// panicking search counts nothing and writes no record. Within a tick the
// records come L2, then each module's L1, then the L0s, then the harness's
// tick record. start is latencyStart's reading before the Decide.

// countL2 counts an L2 decision and records one summary (Module == -1:
// explored count, cost, latency), then one detail per module (its γ).
func (r *run) countL2(dec controller.L2Decision, start time.Time) {
	r.rec.L2Explored += dec.Explored
	r.rec.L2Decisions++
	ns := latencyNs(start)
	r.tally.decision(obs.LevelL2, ns, dec.Explored)
	if !r.recorder.Enabled() {
		return
	}
	r.recorder.Record(obs.Record{
		Level: obs.LevelL2, Module: -1, Comp: -1, FreqIdx: -1,
		Explored: int32(dec.Explored), DecideNs: ns, Cost: dec.Cost,
	})
	for i, g := range dec.Gamma {
		r.recorder.Record(obs.Record{Level: obs.LevelL2, Module: int16(i), Comp: -1, FreqIdx: -1, Gamma: g})
	}
}

// countL1 counts module i's L1 decision and records one summary (Comp ==
// -1: packed α mask, explored count, cost, latency), then one detail per
// computer (its α and γ).
func (r *run) countL1(i int, dec controller.L1Decision, start time.Time) {
	r.rec.L1Explored += dec.Explored
	r.rec.L1Decisions++
	ns := latencyNs(start)
	r.tally.decision(obs.LevelL1, ns, dec.Explored)
	if !r.recorder.Enabled() {
		return
	}
	r.recorder.Record(obs.Record{
		Level: obs.LevelL1, Module: int16(i), Comp: -1, FreqIdx: -1,
		Explored: int32(dec.Explored), DecideNs: ns, Alpha: controller.PackBools(dec.Alpha), Cost: dec.Cost,
	})
	for j, on := range dec.Alpha {
		r.recorder.Record(obs.Record{
			Level: obs.LevelL1, Module: int16(i), Comp: int16(j), FreqIdx: -1, On: on, Gamma: dec.Gamma[j],
		})
	}
}

// countL0 counts computer (i, j)'s L0 decision and records it.
func (r *run) countL0(i, j int, dec controller.L0Decision, start time.Time) {
	r.rec.L0Explored += dec.Explored
	r.rec.L0Decisions++
	ns := latencyNs(start)
	r.tally.decision(obs.LevelL0, ns, dec.Explored)
	if !r.recorder.Enabled() {
		return
	}
	r.recorder.Record(obs.Record{
		Level: obs.LevelL0, Module: int16(i), Comp: int16(j), FreqIdx: int16(dec.FreqIdx),
		Explored: int32(dec.Explored), DecideNs: ns, Cost: dec.Cost,
	})
}

// latencyStart reads the wall clock before a Decide for its latency, and
// only while a recorder or a tally is attached: the zero time otherwise,
// which latencyNs reads as no latency.
func (r *run) latencyStart() time.Time {
	if !r.recorder.Enabled() && r.tally == nil {
		return time.Time{}
	}
	return time.Now() //hpm:wallclock decide latency for the flight record and the tally; observe-only, never a decision input
}

// latencyNs is the latency since a latencyStart reading.
func latencyNs(start time.Time) int64 {
	if start.IsZero() {
		return 0
	}
	return time.Since(start).Nanoseconds() //hpm:wallclock decide latency for the flight record and the tally; observe-only, never a decision input
}

// recordFreq appends one T_L0 sample to computer (i, j)'s frequency series
// (none exist on a streaming run or with RecordFrequencies off).
func (r *run) recordFreq(i, j int, hz float64) {
	if r.freqSeries != nil {
		s := r.freqSeries[i][j]
		s.Values = append(s.Values, hz)
	}
}

// Observe implements engine.Policy: fold the plant interval the harness
// just harvested into the estimators and records. asm.lastPer aliases the
// harness's harvest buffer, which stays valid through the next Decide —
// the only reader — and is overwritten by the harvest after it.
//
//hpm:hotpath
func (r *run) Observe(k int, iv engine.Interval, stats []engine.ModuleStats) error {
	if r.observeFailpoint != nil {
		r.observeFailpoint(k)
	}
	for i, asm := range r.modules {
		agg, per := stats[i].Agg, stats[i].Per
		asm.lastAgg = agg
		asm.lastPer = per
		prior := asm.kalman0.Observe(float64(agg.Arrived))
		if asm.kalman0.Steps() > 1 {
			asm.band0.Observe(prior, float64(agg.Arrived))
		}
		asm.arrivedTL1 += agg.Arrived
		if agg.Completed > 0 {
			asm.cEst.Observe(agg.MeanDemand)
		}
	}
	if r.l2 != nil {
		r.arrivedTL2 += iv.Arrived
	}
	mean := iv.MeanResponse()
	r.respWindow[k%r.sub] = mean
	if s := r.rec.ResponseMean; s != nil {
		s.Values = append(s.Values, mean)
	}
	return nil
}

// futureProfile returns the mean and peak per-step request counts over
// steps [k, k+n), read straight from the trace — the oracle forecast and
// its within-period profile.
func (r *run) futureProfile(k, n int) (mean, peak float64) {
	count := 0
	for s := k; s < k+n && s < r.totalSteps; s++ {
		v := r.trace.Values[s/r.sub] / float64(r.sub)
		mean += v
		if v > peak {
			peak = v
		}
		count++
	}
	if count > 0 {
		mean /= float64(count)
	}
	return mean, peak
}

// cHat returns the module's processing-time estimate.
func (r *run) cHat(asm *moduleAsm) float64 {
	if asm.cEst.Started() {
		return asm.cEst.Value()
	}
	return r.m.cfg.DefaultCHat
}

func moduleAvailable(p *cluster.Plant, i int) bool {
	for j := 0; j < p.ModuleSize(i); j++ {
		if p.Computer(i, j).State() != cluster.Failed {
			return true
		}
	}
	return false
}

// finish assembles the Record around the harness's run outcome and its
// decide clock. The harness has already drained in-flight work and closed
// the energy accounting.
func (r *run) finish(tot engine.Totals, decide time.Duration) *Record {
	rec := r.rec

	// Assemble the Fig. 4 prediction series: per T_L1 boundary, sum the
	// per-module predictions and actuals (predActual is empty on a
	// streaming run, which has no series to fill).
	per := len(r.modules)
	for i := 0; i+per <= len(r.predActual); i += per {
		var p, a float64
		for j := 0; j < per; j++ {
			p += r.predActual[i+j][0]
			a += r.predActual[i+j][1]
		}
		rec.PredictedL1.Values = append(rec.PredictedL1.Values, p)
		rec.ActualL1.Values = append(rec.ActualL1.Values, a)
	}

	rec.Totals = tot
	rec.Misroutes = r.plant.Misroutes()
	lat := r.plant.Latencies()
	rec.ResponseP50 = lat.Quantile(0.50)
	rec.ResponseP99 = lat.Quantile(0.99)
	rec.ResponseMax = lat.Max()
	rec.DecideTime = decide
	return rec
}
