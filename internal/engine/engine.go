// Package engine is the shared-clock simulation engine under every
// closed-loop policy runner. One Harness owns the mechanics a runner needs
// — the simulation clock and control-tick cadence, the boot pre-roll, the
// push-driven request feed (workload.Feed), the quantized failure-plan
// schedule (cluster.FailureSteps / ApplyPlannedFailures), request spreading
// and dispatch, plant advancement, the per-tick interval harvest with its
// aggregate and QoS judgement, and the run's totals — and calls back into
// a small Policy interface that the hierarchical, threshold, and
// centralized controllers implement.
//
// The harness's tick loop is a set of step primitives rather than one
// Run(): Tick advances exactly one control period, NextTickTime peeks the
// clock, and Done reports exhaustion — which is what lets MultiCluster
// interleave several harnesses in global timestamp order behind one clock
// and layer a cross-cluster L3 optimizer on top.
//
// Invariant: a policy rewritten from a private step loop onto the harness
// produces bit-identical results — decisions, QoS violations, energy,
// explored counts — to its pre-engine runner. The legacy loops survive
// verbatim as test oracles (legacy_oracle_test.go in internal/baseline and
// internal/central, mechanics oracle in internal/core) and the committed
// BENCH_scenarios.json regenerates byte-identically through the engine
// path; both pins run under -race in CI.
package engine

import (
	"fmt"
	"math/rand"
	"time"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/des"
	// Aliased: Tick's per-tick observation local is conventionally named obs.
	flight "hierctl/internal/obs"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// DefaultDrainSeconds is the drain every policy runs with by default: five
// minutes past the last tick, so in-flight requests complete.
const DefaultDrainSeconds float64 = 300

// Config parameterizes a Harness. PeriodSeconds is the control-tick width
// (the finest cadence any level of the policy decides at); BinSeconds must
// be an integer multiple of it.
type Config struct {
	// Spec is the cluster the plant simulates.
	Spec cluster.Spec
	// Seed drives the run's two random streams, des.RNG(Seed, "dispatch")
	// for the plant's dispatcher and des.RNG(Seed, "workload") for the
	// request feed — the same names under every policy, so at one seed
	// and one store the hierarchy, the threshold baseline and the
	// centralized controller are compared on the same requests (common
	// random numbers).
	Seed int64
	// PeriodSeconds is the control-tick width in seconds.
	PeriodSeconds float64
	// BinSeconds is the observation-bin width; Start the workload-clock
	// time of the first bin.
	BinSeconds float64
	Start      float64
	// TotalBins fixes the run length when the trace is known up front
	// (PushBin then refuses extra bins); 0 leaves the run open-ended.
	TotalBins int
	// DrainSeconds extends the run past the last tick so in-flight
	// requests complete into the aggregate statistics.
	DrainSeconds float64
	// Failures is the scenario injection plan, quantized onto the tick
	// grid (ceil(At/PeriodSeconds)) and fired ahead of the policy at each
	// boundary — and once more at the final boundary before the drain.
	Failures []workload.FailureEvent
	// Chaos is the sensor-fault injection plan. Its sensor faults corrupt
	// what the policy observes — never the plant, so QoS and energy
	// accounting stay truthful — and are quantized onto the tick grid the
	// same ceil(At/PeriodSeconds) way as Failures; its availability
	// events are merged into Failures at construction. An empty plan is
	// pinned bit-identical to no plan at all.
	Chaos chaos.Plan
	// Recorder, when non-nil, receives one flight-recorder record per
	// tick (whole-decision latency, interval mean response, QoS flag) and
	// carries the tick stamp the controllers' own records pick up.
	// Recording is observe-only: runs are bit-identical with it on or
	// off.
	Recorder *flight.Recorder
	// QoSTarget is the mean-response target (seconds) every tick's
	// interval is judged against — the one judgement behind both the tick
	// record's QoS flag and Totals.ViolationFrac; 0 disables it.
	QoSTarget float64
}

// Harness owns one closed-loop run's mechanics and drives a Policy.
// Construct with New, then either RunTrace for a batch replay or
// PushBin/Tick/Finish for incremental stepping.
type Harness struct {
	cfg    Config
	policy Policy
	plant  *cluster.Plant
	feed   *workload.Feed
	store  *workload.Store
	// dispatch and workload are the random streams behind the plant's
	// dispatcher and the feed, kept for Checkpoint.
	dispatch, workload *des.Stream

	sub     int // ticks per observation bin
	preroll float64
	tick    int
	failAt  []int

	// batch is the current bin's requests — the feed's own arrival-sorted
	// batch, borrowed from PushBin until the bin's last tick has dispatched
	// it, then released (nil between bins) — and cuts the sub+1 offsets that
	// split it by tick: tick d of the bin dispatches
	// batch[cuts[d]:cuts[d+1]].
	batch []workload.Request
	cuts  []int

	stats []ModuleStats
	// per holds the harness-owned harvest buffers, one per module:
	// stats[i].Per aliases per[i] unless the injector or sanitizer
	// substituted its own stash/last-good buffer for the tick.
	per      [][]cluster.IntervalStats
	finished bool

	chaos    *chaos.Schedule
	inj      []injectorState
	san      []sanitizerState
	degraded int
	stale    int64
	rejects  int64

	// respTicks counts ticks whose observed interval completed anything;
	// violations those of them whose mean response exceeded QoSTarget.
	respTicks  int
	violations int

	// window is the running sum of every tick's Interval, module by module
	// (see WindowTotals).
	window Interval
	// decideTime is the wall-clock sum of every tick's Policy.Decide (see
	// DecideTime).
	decideTime time.Duration
}

// New builds the harness: the plant is constructed and warm-started (every
// computer on at full frequency), the boot pre-roll — the longest boot
// delay, defined here and nowhere else — is advanced with its interval
// statistics discarded, and the policy is initialized against the warmed
// plant, whose clock (Plant.Now) then reads the pre-roll.
func New(cfg Config, store *workload.Store, p Policy) (*Harness, error) {
	if p == nil {
		return nil, fmt.Errorf("engine: nil policy")
	}
	sub, err := series.SubSteps(cfg.BinSeconds, cfg.PeriodSeconds)
	if err != nil {
		return nil, err
	}
	if cfg.TotalBins < 0 {
		return nil, fmt.Errorf("engine: total bins %d < 0", cfg.TotalBins)
	}
	if cfg.DrainSeconds < 0 {
		return nil, fmt.Errorf("engine: drain %v < 0", cfg.DrainSeconds)
	}
	dispatch, work := des.NewStream(cfg.Seed, "dispatch"), des.NewStream(cfg.Seed, "workload")
	plant, err := cluster.NewPlant(cfg.Spec, rand.New(dispatch))
	if err != nil {
		return nil, err
	}
	feed, err := workload.NewFeed(cfg.Start, cfg.BinSeconds, store, rand.New(work))
	if err != nil {
		return nil, err
	}
	h := &Harness{
		cfg:      cfg,
		policy:   p,
		plant:    plant,
		feed:     feed,
		store:    store,
		dispatch: dispatch,
		workload: work,
		sub:      sub,
		cuts:     make([]int, sub+1),
		stats:    make([]ModuleStats, len(cfg.Spec.Modules)),
		per:      make([][]cluster.IntervalStats, len(cfg.Spec.Modules)),
	}
	for i, m := range cfg.Spec.Modules {
		h.per[i] = make([]cluster.IntervalStats, len(m.Computers))
	}
	if len(cfg.Chaos.Failures) > 0 {
		// Merge the chaos plan's availability events into the scenario
		// failure plan without mutating the caller's slice.
		merged := make([]workload.FailureEvent, 0, len(cfg.Failures)+len(cfg.Chaos.Failures))
		merged = append(merged, cfg.Failures...)
		merged = append(merged, cfg.Chaos.Failures...)
		h.cfg.Failures = merged
	}
	sched, err := cfg.Chaos.Schedule(cfg.PeriodSeconds, len(cfg.Spec.Modules))
	if err != nil {
		return nil, err
	}
	h.chaos = sched
	h.initSanitizer()
	h.failAt = cluster.FailureSteps(h.cfg.Failures, cfg.PeriodSeconds)

	// Warm start: boot every computer at full frequency; the policy scales
	// down immediately if the load does not justify it.
	for i := range cfg.Spec.Modules {
		for j := range cfg.Spec.Modules[i].Computers {
			if err := plant.PowerOn(i, j); err != nil {
				return nil, err
			}
			if err := plant.SetFrequency(i, j, len(cfg.Spec.Modules[i].Computers[j].FrequenciesHz)-1); err != nil {
				return nil, err
			}
			if d := cfg.Spec.Modules[i].Computers[j].BootDelaySeconds; d > h.preroll {
				h.preroll = d
			}
		}
	}
	if h.preroll > 0 {
		if err := plant.Advance(h.preroll); err != nil {
			return nil, err
		}
		for i := range cfg.Spec.Modules {
			// Discard boot-interval stats.
			if _, _, err := plant.ModuleIntervalStatsInto(i, h.per[i]); err != nil {
				return nil, err
			}
		}
	}
	if err := p.Init(plant); err != nil {
		return nil, err
	}
	return h, nil
}

// Plant returns the simulated cluster.
func (h *Harness) Plant() *cluster.Plant { return h.plant }

// Policy returns the policy the harness drives — the handle a
// cross-cluster layer uses to reach capabilities like Budgeted.
func (h *Harness) Policy() Policy { return h.policy }

// SubSteps returns the number of control ticks per observation bin.
func (h *Harness) SubSteps() int { return h.sub }

// Ticks returns the number of control ticks completed.
func (h *Harness) Ticks() int { return h.tick }

// Bins returns the number of observation bins ingested.
func (h *Harness) Bins() int { return h.feed.Bins() }

// NextTickTime returns the simulation time the next tick starts at, used
// by shared-clock drivers to pick which harness advances next.
func (h *Harness) NextTickTime() float64 { return h.TickTime(h.tick) }

// TickTime returns the simulation time tick k starts at.
func (h *Harness) TickTime(k int) float64 {
	return h.preroll + float64(k)*h.cfg.PeriodSeconds
}

// Done reports whether a fixed-length run has consumed its trace and run
// every tick (always false for open-ended runs until Finish).
func (h *Harness) Done() bool {
	return h.finished || (h.cfg.TotalBins > 0 && h.tick >= h.cfg.TotalBins*h.sub)
}

// PushBin ingests the next observation bin's arrival count: the bin's
// requests are synthesized through the feed and spread onto the tick grid.
// It does not advance the clock — call Tick (SubSteps times per bin) to
// run the control loop, or use RunTrace for the batch loop.
func (h *Harness) PushBin(count float64) error {
	if h.finished {
		return fmt.Errorf("engine: harness already finished")
	}
	if h.cfg.TotalBins > 0 && h.feed.Bins() >= h.cfg.TotalBins {
		return fmt.Errorf("engine: trace exhausted at bin %d", h.feed.Bins())
	}
	if h.feed.Bins()*h.sub != h.tick {
		return fmt.Errorf("engine: bin %d pushed mid-bin at tick %d", h.feed.Bins(), h.tick)
	}
	bin, reqs := h.feed.Push(count)
	h.spread(bin, reqs)
	return nil
}

// spread maps one bin's requests onto the bin's ticks by the one
// arrival-spread rule every policy runs under: a request lands on the tick
// its offset into the bin falls in, clamped to the bin. The feed hands the
// batch over sorted by arrival and that tick is monotone in the arrival, so
// each tick's share is a contiguous run of the batch: one walk records
// where the runs start (cuts) and copies nothing. Arrival times are rebased
// onto the simulation clock in place (workload time zero is the end of the
// boot pre-roll; traces sliced mid-day have a non-zero Start).
//
//hpm:hotpath
func (h *Harness) spread(bin int, reqs []workload.Request) {
	binStart := h.cfg.Start + float64(bin)*h.cfg.BinSeconds
	rebase := h.preroll - h.cfg.Start
	d := 0
	for i := range reqs {
		at := min(int((reqs[i].Arrival-binStart)/h.cfg.PeriodSeconds), h.sub-1)
		for ; d < at; d++ {
			h.cuts[d+1] = i
		}
		reqs[i].Arrival += rebase
	}
	for ; d < h.sub; d++ {
		h.cuts[d+1] = len(reqs)
	}
	h.batch = reqs
}

// Tick advances one control period: planned failures fire at the boundary,
// the policy decides, the tick's arrivals dispatch under the returned
// fractions, the plant advances through the period, and the harvested
// interval statistics — per module, plus their one cluster-wide Interval —
// go back to the policy. The harvest reuses harness-owned buffers, so a
// steady-state tick allocates nothing outside the policy's own
// Decide/Observe.
//
//hpm:hotpath
func (h *Harness) Tick() error {
	if h.finished {
		return fmt.Errorf("engine: harness already finished")
	}
	k := h.tick
	if k >= h.feed.Bins()*h.sub {
		return fmt.Errorf("engine: tick %d outruns the %d ingested bins", k, h.feed.Bins())
	}
	t := h.preroll + float64(k)*h.cfg.PeriodSeconds
	if err := h.plant.ApplyPlannedFailures(h.cfg.Failures, h.failAt, k); err != nil {
		return err
	}
	d := k % h.sub
	reqs := h.batch[h.cuts[d]:h.cuts[d+1]]
	rec := h.cfg.Recorder
	rec.SetTick(int64(k))
	decideStart := time.Now() //hpm:wallclock decide latency for the §4.3 overhead metric; observe-only, never a decision input
	st, err := h.policy.Decide(k, len(reqs))
	if err != nil {
		return err
	}
	decide := time.Since(decideStart) //hpm:wallclock decide latency for the §4.3 overhead metric; observe-only, never a decision input
	h.decideTime += decide
	if len(reqs) > 0 {
		if err := h.plant.Dispatch(reqs, st.GammaModules, st.GammaComputers); err != nil {
			return err
		}
	}
	if d == h.sub-1 {
		// The queues hold copies: the bin's batch goes back to the pool.
		h.batch = nil
		h.feed.Release()
	}
	if err := h.plant.Advance(t + h.cfg.PeriodSeconds); err != nil {
		return err
	}
	for i := range h.stats {
		agg, per, err := h.plant.ModuleIntervalStatsInto(i, h.per[i])
		if err != nil {
			return err
		}
		h.stats[i] = ModuleStats{Agg: agg, Per: per}
	}
	// Sensor faults and sanitization sit between the harvest and the
	// policy's Observe: the plant's accounting above is already truthful,
	// and only the policy's view of the interval is corrupted or healed.
	staleNow := h.injectAndSanitize(k)
	if st.Degraded {
		h.degraded++
	}
	// The interval is summed over what the policy is shown, so the QoS
	// judgement, the tick record and the policy's estimators all read one
	// value.
	var iv Interval
	for i := range h.stats {
		iv.add(h.stats[i].Agg)
		h.window.add(h.stats[i].Agg)
	}
	mean := iv.MeanResponse()
	violated := h.cfg.QoSTarget > 0 && mean > h.cfg.QoSTarget
	if iv.Completed > 0 {
		h.respTicks++
		if violated {
			h.violations++
		}
	}
	if rec.Enabled() {
		rec.Record(flight.Record{
			Level:    flight.LevelTick,
			Module:   -1,
			Comp:     -1,
			FreqIdx:  -1,
			DecideNs: decide.Nanoseconds(),
			Resp:     mean,
			QoS:      violated,
			Degraded: st.Degraded,
			Stale:    int16(staleNow),
		})
	}
	h.tick++
	return h.policy.Observe(k, iv, h.stats)
}

// Finish fires failures quantized exactly to the final boundary, drains
// in-flight work, and closes the energy accounting. The harness cannot be
// stepped afterwards.
func (h *Harness) Finish() error {
	if h.finished {
		return fmt.Errorf("engine: harness already finished")
	}
	h.finished = true
	if err := h.plant.ApplyPlannedFailures(h.cfg.Failures, h.failAt, h.tick); err != nil {
		return err
	}
	end := h.preroll + float64(h.tick)*h.cfg.PeriodSeconds
	if err := h.plant.Advance(end + h.cfg.DrainSeconds); err != nil {
		return err
	}
	h.plant.FinishAccounting()
	return nil
}

// RunTrace is the batch loop: every trace bin is pushed and ticked through,
// then the run finishes. The trace must match the configured bin grid (its
// Step and Start are the caller's responsibility — they seed Config).
func (h *Harness) RunTrace(trace *series.Series) error {
	for _, count := range trace.Values {
		if err := h.PushBin(count); err != nil {
			return err
		}
		for d := 0; d < h.sub; d++ {
			if err := h.Tick(); err != nil {
				return err
			}
		}
	}
	return h.Finish()
}

// Totals is a run's outcome, totalled once for every policy: the plant's
// lifetime accounting in module-major computer order, the latency
// histogram's exact mean and its p95, plus the harness's own per-tick
// counters.
type Totals struct {
	Energy       float64
	Switches     int
	Completed    int64
	Dropped      int64
	MeanResponse float64
	// ResponseP95 is the per-request 95th-percentile latency.
	ResponseP95 float64
	// ViolationFrac is the fraction of ticks with completions whose
	// interval mean response exceeded Config.QoSTarget.
	ViolationFrac float64
	// DegradedTicks counts ticks the policy decided through its
	// deterministic fallback path (Settings.Degraded).
	DegradedTicks int
	// StaleObservations counts module observations the sanitizer held at
	// the last good value, SanitizedRejects those of them it rejected for
	// carrying non-finite or negative values (module-ticks; zero on
	// healthy runs).
	StaleObservations int64
	SanitizedRejects  int64
}

// TickCounts returns the tick records' QoS, Degraded and Stale so far,
// summed: Totals.ViolationFrac's numerator, DegradedTicks and
// StaleObservations.
func (h *Harness) TickCounts() (qos, degraded int, stale int64) {
	return h.violations, h.degraded, h.stale
}

// Totals reads the run's aggregate outcomes; call after Finish.
func (h *Harness) Totals() Totals {
	out := Totals{
		Energy:            h.plant.TotalEnergy(),
		Switches:          h.plant.TotalSwitches(),
		DegradedTicks:     h.degraded,
		StaleObservations: h.stale,
		SanitizedRejects:  h.rejects,
	}
	if h.respTicks > 0 {
		out.ViolationFrac = float64(h.violations) / float64(h.respTicks)
	}
	for i := 0; i < h.plant.Modules(); i++ {
		for j := 0; j < h.plant.ModuleSize(i); j++ {
			c := h.plant.Computer(i, j)
			out.Completed += c.TotalCompleted()
			out.Dropped += c.TotalDropped()
		}
	}
	out.MeanResponse = h.plant.Latencies().Mean()
	out.ResponseP95 = h.plant.Latencies().Quantile(0.95)
	return out
}

// DecideTime returns the wall-clock time the policy's Decide took, summed
// over every tick this harness has run: the §4.3 decision-time metric of
// every policy, timed around the same call. It is observe-only and not
// checkpointed: a restored harness counts from zero.
func (h *Harness) DecideTime() time.Duration { return h.decideTime }

// WindowTotals returns the run's Interval so far: every tick's module
// aggregates, added one by one as the policy was shown them. Shared-clock
// drivers snapshot it at L3 boundaries and difference the snapshots to
// observe a cluster's recent window. An L3 layer therefore sees what the
// member's own policy sees — post-injection and post-sanitizer, sensor
// faults included; no committed run combines an L3 layer with a chaos plan.
func (h *Harness) WindowTotals() Interval { return h.window }
