// Package core composes the paper's full system (Fig. 2): the plant from
// internal/cluster, the L0/L1/L2 controllers from internal/controller, the
// Kalman/EWMA estimators from internal/forecast, and the offline learning
// of abstraction maps and regression trees from internal/approx — all
// driven by engine.Harness on the multi-rate schedule T_L0 ≤ T_L1 ≤ T_L2.
//
// Invariants:
//
//   - A run is deterministic for a given (spec, config, trace, store)
//     tuple: every random stream derives from Config.Seed.
//   - Config.Parallelism only changes the wall-clock time of offline
//     learning: a control tick runs on one goroutine (each module's L1
//     decision is planned and applied in turn, in module order), so
//     run records and flight-recorder sequences are bit-identical at any
//     worker count (pinned by parallel_test.go at the repo root and
//     TestManagerRecorderEquivalence).
//   - Manager.Run is a thin replay over the incremental Session engine:
//     a streaming Session fed a trace's bins in order takes the identical
//     decisions bin for bin and finishes with the identical totals, which
//     is what lets the online control plane (internal/fleet) and the
//     batch experiments share one code path.
package core

import (
	"time"

	"hierctl/internal/engine"
	"hierctl/internal/series"
)

// Record holds everything a run captures for the paper's figures and
// tables. Series are sampled at the cadence noted on each field.
//
// The series rule: a run's series are bounded by its trace. A session
// opened on a Trace (Manager.Run, every experiment) records all seven
// series fields below; a streaming session (SessionConfig.Trace == nil —
// unbounded input, every fleet tenant) records none and leaves them nil,
// so its memory does not grow with uptime, and its Record carries the
// totals, percentiles and overhead counters only. Per-bin values of a
// streaming run are served as they happen, by BinDecision.
type Record struct {
	// Trace is the offered load in requests per trace bin.
	Trace *series.Series
	// PredictedL1 is the sum over modules of the L1-level Kalman
	// one-step forecasts, per T_L1 bin (Fig. 4 top), aligned with
	// ActualL1, the realized arrivals.
	PredictedL1 *series.Series
	ActualL1    *series.Series
	// Operational is the number of operational computers per T_L1 bin
	// (Figs. 4 and 6 bottom).
	Operational *series.Series
	// ResponseMean is the cluster mean response time of requests
	// completed in each T_L0 bin (Fig. 5 bottom), 0 for empty bins.
	ResponseMean *series.Series
	// FreqByComputer maps computer name to its operating frequency in
	// Hz per T_L0 bin (Fig. 5 top).
	FreqByComputer map[string]*series.Series
	// GammaModules[i] is module i's load fraction per T_L2 bin (Fig. 7).
	GammaModules []*series.Series

	// Totals is the harness's run outcome — energy, power-on switches,
	// completed and dropped requests, the p95 latency, the fraction of
	// T_L0 intervals violating r*, and the degraded-mode counters (zero on
	// healthy runs) — the same value the flat runners' results embed.
	engine.Totals
	Misroutes int64 // dispatcher fallbacks
	// ResponseP50/P99 (and Totals.ResponseP95) are per-request latency
	// percentiles over the whole run (log-bucketed histogram, ≤ 15%
	// relative error); ResponseMax is exact.
	ResponseP50, ResponseP99, ResponseMax float64
	TargetResponse                        float64

	// Overhead: per level, the states explored and the decisions made,
	// summed over the run's decisions that returned (a budget trip or a
	// recovered panic counts for neither).
	L0Explored, L1Explored, L2Explored    int
	L0Decisions, L1Decisions, L2Decisions int
	// DecideTime is the wall-clock time of every tick's decide step, all
	// three levels and the dispatch fractions, timed by the harness
	// (engine.Harness.DecideTime). A restored session counts from its
	// restore.
	DecideTime time.Duration
	// LearnTime is the offline phase (maps g + trees J̃).
	LearnTime time.Duration
}

// MeanResponse returns the run's mean response time over completed
// requests, Totals.MeanResponse.
func (r *Record) MeanResponse() float64 { return r.Totals.MeanResponse }

// ExploredPerL1Decision returns the paper's §4.3 overhead metric: average
// states examined per L1 sampling period (including the L0 searches that
// ran within that module in the same period).
func (r *Record) ExploredPerL1Decision() float64 {
	if r.L1Decisions == 0 {
		return 0
	}
	return float64(r.L1Explored) / float64(r.L1Decisions)
}

// DecisionTimePerPeriod returns the mean online computation time spent per
// L1 decision across the whole hierarchy, DecideTime over L1Decisions (the
// §4.3/§5.2 execution-time metric).
func (r *Record) DecisionTimePerPeriod() time.Duration {
	if r.L1Decisions == 0 {
		return 0
	}
	return r.DecideTime / time.Duration(r.L1Decisions)
}
