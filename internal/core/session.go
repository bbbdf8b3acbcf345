package core

import (
	"fmt"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/engine"
	"hierctl/internal/forecast"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// TunePrefixFrac is the fraction of a trace used to tune the Kalman
// filters before the run (§4.3) when no calibration is given.
const TunePrefixFrac float64 = 0.15

// SessionConfig parameterizes an incremental run of the hierarchy.
//
// Online operation supplies BinSeconds (the cadence observations will
// arrive at) and, optionally, a Calibration prefix of arrival counts used
// to tune the Kalman filters before the first observation. Batch replays
// supply Trace instead: the bin width and calibration prefix then come
// from the trace, and oracle forecasts (Config.OracleForecast) become
// possible because the future is known. Only a session opened on a Trace
// records the Record's series (see Record): a streaming session keeps no
// per-bin state at all. Either mode runs under its own Failures and Chaos
// plans.
type SessionConfig struct {
	// BinSeconds is the observation bin width in seconds; it must be an
	// integer multiple of T_L0. Ignored when Trace is set.
	BinSeconds float64
	// Start is the workload-clock time of the first bin (0 for online
	// sessions). Ignored when Trace is set.
	Start float64
	// Calibration is an optional arrival-count history used to tune the
	// Kalman filters (§4.3); fewer than 8 bins falls back to the prior.
	// When nil and Trace is set, the trace's TunePrefixFrac prefix is
	// used, matching the batch engine.
	Calibration []float64
	// Trace, when set, fixes the whole workload plan up front: ObserveBin
	// must then be fed the trace's values in order. Required for
	// Config.OracleForecast, for the Record's series and for Manager.Run.
	Trace *series.Series
	// Failures is the availability plan: each event fails or repairs one
	// computer at its time, quantized to the next T_L0 boundary. Entries
	// addressing a computer the cluster does not have are skipped when
	// they fall due (cluster.Plant.ApplyPlannedFailures), so one scenario
	// plan drives every policy and every cluster shape identically.
	Failures []workload.FailureEvent
	// Chaos is the sensor-fault plan: its sensor faults corrupt what the
	// controllers observe (the plant and its accounting stay truthful),
	// its availability events merge with Failures, and a positive
	// DecisionBudget caps every decision's search work — the states each
	// L0 lookahead evaluates, the abstraction-map probes of each L1
	// decision, the J̃ terms each L2 decision prices — and a decision that
	// exhausts it trips the deterministic degraded-tick fallback. The zero
	// plan injects nothing.
	Chaos chaos.Plan
}

// Session advances one hierarchy incrementally: each ObserveBin ingests
// the next arrival-count bin, steps the plant and the L0/L1/L2 controllers
// through the bin's T_L0 periods, and reports the decisions taken. Finish
// drains in-flight work and assembles the Record. A session opened on a
// trace and fed its bins in order is Manager.Run over that trace; a
// streaming session fed the same bins decides bit-identically and differs
// only in recording no series.
//
// The mechanics — clock, pre-roll, request feed, failure schedule,
// dispatch, plant advance, harvest — live in the shared simulation engine
// (internal/engine); the session's run adapter implements engine.Policy
// and owns only the hierarchy's control flow. The pre-engine mechanics
// survive verbatim as the test oracle in legacy_mechanics_test.go.
//
// A session owns everything that changes while it runs — its plans, the
// plant (in its engine harness), the controllers and the estimators — and
// shares with its Manager only what was learned and configured, so a
// Manager may have several sessions open, each deciding exactly as a fresh
// Manager's would. The controllers' working memory is not the session's
// state: a bin steps in the controller.Scratch its caller hands StepBinIn
// (a fleet shard's, shared by every tenant it steps), or, through StepBin,
// in one the session makes at its first bin and keeps.
// Sessions are not safe for concurrent use.
type Session struct {
	r *run
	h *engine.Harness
	// scratch is what StepBin steps in, made at its first call; nil for a
	// session only ever stepped through StepBinIn.
	scratch *controller.Scratch
	// bins counts the bins StepBin finished: one behind the harness while
	// a bin is in progress, and for good once a step stopped mid-bin.
	bins     int
	finished bool
}

// BinDecision is the controller output for one observation bin: the
// provisioning (on/off), load-sharing, and frequency settings in force
// after the bin's control periods ran. The JSON tags are hpmserve's wire
// format for a decision.
type BinDecision struct {
	// Bin is the observation bin index this decision closes.
	Bin int `json:"bin"`
	// Time is the workload-clock time at the end of the bin.
	Time float64 `json:"time"`
	// GammaModules is the cluster-level load split γ_i (nil for
	// single-module hierarchies, which have no L2).
	GammaModules []float64 `json:"gammaModules,omitempty"`
	// Modules holds the per-module operating decisions.
	Modules []ModuleDecision `json:"modules"`
	// MeanResponse is the mean response time over the bin's completed
	// T_L0 intervals (0 when nothing completed).
	MeanResponse float64 `json:"meanResponse"`
	// Operational is the number of operational computers at bin end.
	Operational int `json:"operational"`
}

// ModuleDecision is one module's operating state after a control period.
type ModuleDecision struct {
	// Alpha marks which computers the L1 controller keeps powered.
	Alpha []bool `json:"alpha"`
	// Gamma is the within-module dispatch split γ_ij.
	Gamma []float64 `json:"gamma"`
	// FreqIdx is each computer's operating-frequency index (-1 while the
	// computer is off or failed); FreqHz is the same in Hz (0 when off).
	FreqIdx []int     `json:"freqIdx"`
	FreqHz  []float64 `json:"freqHz"`
}

// NewSession builds the runtime state for an incremental run: the
// hierarchy's controllers and estimators are built from the manager's
// learned artifacts, the Kalman filters are tuned on the calibration
// prefix, the plant is booted and pre-rolled by the engine harness, and the
// request feed is seeded. See SessionConfig for the online vs batch modes.
func (m *Manager) NewSession(store *workload.Store, sc SessionConfig) (*Session, error) {
	if store == nil {
		return nil, fmt.Errorf("core: nil store")
	}
	binStep, start0 := sc.BinSeconds, sc.Start
	if sc.Trace != nil {
		if sc.Trace.Len() == 0 {
			return nil, fmt.Errorf("core: empty trace")
		}
		binStep, start0 = sc.Trace.Step, sc.Trace.Start
	}
	tl0 := controller.PeriodL0
	sub, err := series.SubSteps(binStep, tl0)
	if err != nil {
		return nil, fmt.Errorf("core: trace bin %vs is not a multiple of T_L0 %vs", binStep, tl0)
	}
	if m.cfg.OracleForecast && sc.Trace == nil {
		return nil, fmt.Errorf("core: oracle forecasts need the full trace up front")
	}
	r := &run{
		m:       m,
		trace:   sc.Trace,
		sub:     sub,
		tl0:     tl0,
		binStep: binStep,
		start0:  start0,
		l1Every: int(m.cfg.L1.PeriodSeconds/tl0 + 0.5),
		l2Every: int(m.cfg.L2.PeriodSeconds/tl0 + 0.5),
	}
	totalBins := 0
	if sc.Trace != nil {
		totalBins = sc.Trace.Len()
		r.totalSteps = totalBins * sub
	}

	cal := sc.Calibration
	if cal == nil && sc.Trace != nil {
		prefixBins := int(float64(sc.Trace.Len()) * TunePrefixFrac)
		cal = sc.Trace.Values[:prefixBins]
	}
	if err := r.build(cal, sc.Chaos.DecisionBudget); err != nil {
		return nil, err
	}

	h, err := engine.New(engine.Config{
		Spec:          m.spec,
		Seed:          m.cfg.Seed,
		PeriodSeconds: tl0,
		BinSeconds:    binStep,
		Start:         start0,
		TotalBins:     totalBins,
		DrainSeconds:  m.cfg.DrainSeconds,
		Failures:      sc.Failures,
		Chaos:         sc.Chaos,
		Recorder:      r.recorder,
		QoSTarget:     controller.TargetResponse,
	}, store, r)
	if err != nil {
		return nil, err
	}
	return &Session{r: r, h: h}, nil
}

// SetL1Failpoint installs a test hook invoked in every L1 planning call,
// after the module's estimator folds and just before its search, with the
// module index and tick; a panicking hook exercises the degraded-tick
// recovery path. Nil (the default) disables it. Test seam only — never
// serialized, never set in production.
func (s *Session) SetL1Failpoint(fn func(module, tick int)) { s.r.l1Failpoint = fn }

// SetObserveFailpoint installs a test hook invoked with the tick at the top
// of every tick's Observe — after the tick's mechanics ran and the clock
// advanced, outside every controller guard — so a panicking hook stops the
// session mid-bin the way an unguarded fault would. Nil (the default)
// disables it. Test seam only — never serialized, never set in production.
func (s *Session) SetObserveFailpoint(fn func(tick int)) { s.r.observeFailpoint = fn }

// build gives the run its hierarchy, fresh from the manager's learned
// artifacts: per module an L1 over the module's maps, one L0 per computer,
// the Kalman filters, the bands, the ĉ EWMA and the decision scratch;
// across modules the L2 over the trees and the cluster filter and band.
// One Kalman tuning on the calibration prefix cal (§4.3) serves every
// level: the filter gain depends on the Q/R ratios, which are
// scale-invariant across aggregation levels. budget is the session's chaos
// DecisionBudget (0 = unbounded). The run keeps the manager's recorder as
// it stands now, so no two runs share anything that changes while they
// run.
func (r *run) build(cal []float64, budget int) error {
	m := r.m
	ql, qt, ro := 1.0, 0.1, 10.0 // fallback prior
	if len(cal) >= 8 {
		tuned, _, err := forecast.TuneKalman(cal)
		if err != nil {
			return err
		}
		ql, qt, ro = tuned.Params()
	}
	newKalman := func() (*forecast.Kalman, error) { return forecast.NewKalman(ql, qt, ro) }
	r.recorder = m.recorder
	var err error

	p := len(m.spec.Modules)
	r.modules = make([]*moduleAsm, p)
	r.freqIdx = make([][]int, p)
	r.weights = make([][]float64, p)
	for i, ms := range m.spec.Modules {
		n := len(ms.Computers)
		asm := &moduleAsm{
			specs:        ms.Computers,
			alpha:        make([]bool, n),
			lastPer:      make([]cluster.IntervalStats, n),
			pendingRatio: 1,
			l0Ratio:      1,
			obsQueues:    make([]float64, n),
			obsAvail:     make([]bool, n),
			l0Lambda:     make([]float64, m.cfg.L0.Horizon),
		}
		if asm.l1, err = controller.NewL1(m.cfg.L1, m.gmaps[i]); err != nil {
			return err
		}
		asm.l1.SetMaxExplored(budget)
		for _, cs := range ms.Computers {
			l0, err := controller.NewL0(m.cfg.L0, cs)
			if err != nil {
				return err
			}
			l0.SetMaxExplored(budget)
			asm.l0s = append(asm.l0s, l0)
		}
		if asm.kalman0, err = newKalman(); err != nil {
			return err
		}
		if asm.kalman1, err = newKalman(); err != nil {
			return err
		}
		if asm.band, err = forecast.NewBand(forecast.BandSmoothing); err != nil {
			return err
		}
		if asm.band0, err = forecast.NewBand(forecast.BandSmoothing); err != nil {
			return err
		}
		if asm.cEst, err = forecast.NewEWMA(forecast.CHatSmoothing); err != nil {
			return err
		}
		// The plant arrives warm, all-on at full frequency, under the
		// capacity-proportional split.
		for j := range asm.alpha {
			asm.alpha[j] = true
		}
		if asm.gamma, err = controller.SnapSimplex(capacities(asm.specs), asm.alpha, m.cfg.L1.Quantum); err != nil {
			return err
		}
		r.modules[i] = asm
		r.freqIdx[i] = make([]int, n)
		for j := range r.freqIdx[i] {
			r.freqIdx[i][j] = -1
		}
		r.weights[i] = make([]float64, n)
	}
	if m.jtildes != nil {
		if r.l2, err = controller.NewL2(m.cfg.L2, m.jtildes); err != nil {
			return err
		}
		r.l2.SetMaxExplored(budget)
		r.l2QAvg = make([]float64, p)
		r.l2CHat = make([]float64, p)
		r.l2Avail = make([]bool, p)
		if r.kalmanG, err = newKalman(); err != nil {
			return err
		}
		if r.bandG, err = forecast.NewBand(forecast.BandSmoothing); err != nil {
			return err
		}
	}
	// With one module this is [1].
	r.gammaModules = controller.EqualSplit(make([]float64, p))

	r.respWindow = make([]float64, r.sub)
	r.last.Modules = make([]ModuleDecision, p)
	return nil
}

// Init implements engine.Policy: the plant arrives warm (all-on at full
// frequency, pre-roll advanced), and the run builds its record.
func (r *run) Init(plant *cluster.Plant) error {
	r.plant = plant
	r.rec = &Record{
		TargetResponse: controller.TargetResponse,
		LearnTime:      r.m.learnTime,
	}
	if r.trace != nil {
		r.initSeries(plant.Now())
	}
	return nil
}

// initSeries gives the record its per-period series. Only a run opened on
// a trace has them: the trace bounds their length, where a streaming
// session's would grow for as long as the tenant lives.
func (r *run) initSeries(preroll float64) {
	m := r.m
	rec := r.rec
	rec.Trace = r.trace
	rec.PredictedL1 = series.New(preroll+m.cfg.L1.PeriodSeconds, m.cfg.L1.PeriodSeconds, 0)
	rec.ActualL1 = series.New(preroll+m.cfg.L1.PeriodSeconds, m.cfg.L1.PeriodSeconds, 0)
	rec.Operational = series.New(preroll, m.cfg.L1.PeriodSeconds, 0)
	rec.ResponseMean = series.New(preroll, r.tl0, 0)
	rec.FreqByComputer = map[string]*series.Series{}
	if r.l2 != nil {
		rec.GammaModules = make([]*series.Series, len(r.modules))
		for i := range rec.GammaModules {
			rec.GammaModules[i] = series.New(preroll, m.cfg.L2.PeriodSeconds, 0)
		}
	}
	if m.cfg.RecordFrequencies {
		r.freqSeries = make([][]*series.Series, len(m.spec.Modules))
		for i, ms := range m.spec.Modules {
			r.freqSeries[i] = make([]*series.Series, len(ms.Computers))
			for j, cs := range ms.Computers {
				r.freqSeries[i][j] = series.New(preroll, r.tl0, 0)
				rec.FreqByComputer[cs.Name] = r.freqSeries[i][j]
			}
		}
	}
}

// ObserveBin ingests the next observation bin's arrival count, advances
// the hierarchy through the bin's T_L0 control periods against the
// synthesized requests, and returns the decisions now in force: StepBin
// followed by Decision.
func (s *Session) ObserveBin(count float64) (BinDecision, error) {
	if err := s.StepBin(count); err != nil {
		return BinDecision{}, err
	}
	return s.Decision(), nil
}

// StepBin is ObserveBin without the decision payload: it ingests the bin
// and steps the hierarchy through it, allocating nothing in steady state.
// Callers that need the decisions in force read them with Decision, once,
// where they escape. The controllers decide in the session's own Scratch,
// and nothing tallies the bin.
func (s *Session) StepBin(count float64) error {
	if s.scratch == nil {
		s.scratch = new(controller.Scratch)
	}
	return s.StepBinIn(s.scratch, nil, count)
}

// StepBinIn is StepBin with the controllers deciding in sc, and the bin's
// decisions and tick counters added to tl unless it is nil — what the bin
// got through, if the step fails or panics mid-bin. The session uses sc
// and tl only for this call and keeps neither: whoever steps many sessions
// on one goroutine hands each the same ones, and every session decides bit
// for bit as in a Scratch of its own.
func (s *Session) StepBinIn(sc *controller.Scratch, tl *Tally, count float64) error {
	s.r.sc, s.r.tally = sc, tl
	qos, degraded, stale := s.h.TickCounts()
	defer func() {
		s.r.sc, s.r.tally = nil, nil
		if tl != nil {
			q, d, st := s.h.TickCounts()
			tl.QoSViolations += uint64(q - qos)
			tl.DegradedTicks += uint64(d - degraded)
			tl.StaleObservations += uint64(st - stale)
		}
	}()
	return s.stepBin(count)
}

func (s *Session) stepBin(count float64) error {
	if s.finished {
		return fmt.Errorf("core: session already finished")
	}
	if s.Halted() {
		return fmt.Errorf("core: session stopped mid-bin %d", s.bins)
	}
	r := s.r
	// A session opened on a trace refuses bins past its end: the harness
	// was given the trace length as TotalBins.
	if err := s.h.PushBin(count); err != nil {
		return err
	}
	for d := 0; d < r.sub; d++ {
		if err := s.h.Tick(); err != nil {
			return err
		}
	}
	r.refreshDecision(s.h.Bins() - 1)
	s.bins++
	return nil
}

// Halted reports whether a step stopped mid-bin: a StepBin that failed or
// panicked after its bin was pushed. A halted session steps no further bin
// and has no checkpoint; Progress reports its last clean bin.
func (s *Session) Halted() bool { return s.bins != s.h.Bins() }

// Decision returns the decisions in force after the most recent bin that
// stepped cleanly (bin 0 with empty settings before the first) — a bin
// that errored or panicked mid-step leaves it at its predecessor's. The
// result owns its slices, so it may leave the session's goroutine: it is
// DecisionInto a zero BinDecision, four allocations whatever the shape.
func (s *Session) Decision() BinDecision {
	var d BinDecision
	s.DecisionInto(&d)
	return d
}

// DecisionInto copies Decision's payload into dst. When each of dst's
// slices has the capacity its part of the copy needs — dst holds an
// earlier copy of a decision at least as wide — the copy is written there
// and allocates nothing. Otherwise dst's old slices are dropped, never
// written, and it gets fresh ones carved from one backing array per
// element type, each at its own length and capacity: the Modules slice and
// three arrays, four allocations whatever the shape. Either way an empty
// source slice copies as nil, so dst marshals exactly as Decision's result
// does.
func (s *Session) DecisionInto(dst *BinDecision) {
	last := &s.r.last
	if !decisionFits(dst, last) {
		floats, bools, ints := len(last.GammaModules), 0, 0
		for _, md := range last.Modules {
			floats += len(md.Gamma) + len(md.FreqHz)
			bools += len(md.Alpha)
			ints += len(md.FreqIdx)
		}
		fs, bs, is := make([]float64, floats), make([]bool, bools), make([]int, ints)
		*dst = BinDecision{
			GammaModules: carve(&fs, len(last.GammaModules)),
			Modules:      make([]ModuleDecision, len(last.Modules)),
		}
		for i, md := range last.Modules {
			dst.Modules[i] = ModuleDecision{
				Alpha:   carve(&bs, len(md.Alpha)),
				Gamma:   carve(&fs, len(md.Gamma)),
				FreqIdx: carve(&is, len(md.FreqIdx)),
				FreqHz:  carve(&fs, len(md.FreqHz)),
			}
		}
	}
	gamma, modules := fill(dst.GammaModules, last.GammaModules), dst.Modules[:len(last.Modules)]
	*dst = *last
	dst.GammaModules, dst.Modules = gamma, modules
	for i, md := range last.Modules {
		d := &modules[i]
		d.Alpha = fill(d.Alpha, md.Alpha)
		d.Gamma = fill(d.Gamma, md.Gamma)
		d.FreqIdx = fill(d.FreqIdx, md.FreqIdx)
		d.FreqHz = fill(d.FreqHz, md.FreqHz)
	}
}

// decisionFits reports whether every slice of dst has the capacity for its
// part of a copy of src.
func decisionFits(dst, src *BinDecision) bool {
	if cap(dst.GammaModules) < len(src.GammaModules) || cap(dst.Modules) < len(src.Modules) {
		return false
	}
	for i, md := range src.Modules {
		d := &dst.Modules[:len(src.Modules)][i]
		if cap(d.Alpha) < len(md.Alpha) || cap(d.Gamma) < len(md.Gamma) ||
			cap(d.FreqIdx) < len(md.FreqIdx) || cap(d.FreqHz) < len(md.FreqHz) {
			return false
		}
	}
	return true
}

// carve returns the front n elements of *back, capped at n so that
// appending to them never writes into their neighbour, and advances *back
// past them.
func carve[T any](back *[]T, n int) []T {
	dst := (*back)[:n:n]
	*back = (*back)[n:]
	return dst
}

// fill copies src into the front of dst, which has the capacity for it,
// and returns the copy. An empty src gives nil, as a fresh append would.
func fill[T any](dst, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Operational returns Decision().Operational — the operational computers
// after the most recent clean bin — without building the decision.
func (s *Session) Operational() int { return s.r.last.Operational }

// Progress reports how far the session has advanced through its last
// clean bin: observation bins stepped, T_L0 steps run, and the simulation
// clock (which includes the boot pre-roll). A halted session reports the
// bin boundary before the step that stopped.
func (s *Session) Progress() (bins, steps int, simTime float64) {
	if s.Halted() {
		steps = s.bins * s.r.sub
		return s.bins, steps, s.h.TickTime(steps)
	}
	return s.h.Bins(), s.h.Ticks(), s.h.NextTickTime()
}

// Finish drains in-flight work past the last observed bin and assembles
// the run's Record. The session cannot be used afterwards.
func (s *Session) Finish() (*Record, error) {
	if s.finished {
		return nil, fmt.Errorf("core: session already finished")
	}
	s.finished = true
	// The harness fires failures quantized exactly to the final boundary,
	// drains in-flight work, and closes the energy accounting.
	if err := s.h.Finish(); err != nil {
		return nil, err
	}
	return s.r.finish(s.h.Totals(), s.h.DecideTime()), nil
}

// refreshDecision rewrites r.last, in place, with the decision payload
// after bin's steps ran.
func (r *run) refreshDecision(bin int) {
	d := &r.last
	d.Bin = bin
	d.Time = r.start0 + float64(bin+1)*r.binStep
	d.Operational = r.plant.OperationalComputers()
	if r.l2 != nil {
		d.GammaModules = append(d.GammaModules[:0], r.gammaModules...)
	}
	for i, asm := range r.modules {
		md := &d.Modules[i]
		md.Alpha = append(md.Alpha[:0], asm.alpha...)
		md.Gamma = append(md.Gamma[:0], asm.gamma...)
		md.FreqIdx = append(md.FreqIdx[:0], r.freqIdx[i]...)
		md.FreqHz = md.FreqHz[:0]
		for j, idx := range md.FreqIdx {
			hz := 0.0
			if idx >= 0 {
				hz = asm.specs[j].FrequenciesHz[idx]
			}
			md.FreqHz = append(md.FreqHz, hz)
		}
	}
	// Mean response over the bin's completed T_L0 intervals.
	sum, cnt := 0.0, 0
	for _, v := range r.respWindow {
		if v > 0 {
			sum += v
			cnt++
		}
	}
	d.MeanResponse = 0
	if cnt > 0 {
		d.MeanResponse = sum / float64(cnt)
	}
}
