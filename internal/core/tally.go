package core

import "hierctl/internal/obs"

// The bucket upper bounds of a Tally's decision histograms: decide
// latency in nanoseconds (1 µs .. 1 s by decades) and states explored per
// decision. A value above the last bound counts only toward the total, the
// implicit +Inf bucket of a Prometheus histogram.
var (
	decideBoundsNs = [...]int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	exploredBounds = [...]int64{1, 10, 100, 1e3, 1e4, 1e5}
)

// DecideBounds returns the decide-latency bucket bounds of
// LevelTally.DecideBuckets, in seconds.
func DecideBounds() []float64 {
	out := make([]float64, len(decideBoundsNs))
	for i, ns := range decideBoundsNs {
		out[i] = float64(ns) / 1e9
	}
	return out
}

// ExploredBounds returns the bucket bounds of LevelTally.ExploredBuckets.
func ExploredBounds() []float64 {
	out := make([]float64, len(exploredBounds))
	for i, n := range exploredBounds {
		out[i] = float64(n)
	}
	return out
}

// TallyLevels are the hierarchy levels Tally.Levels is indexed by: the
// controllers, in obs.Level order.
var TallyLevels = [...]obs.Level{obs.LevelL0, obs.LevelL1, obs.LevelL2}

// LevelTally is one hierarchy level's decisions: one sample per Decide
// that returned (a tripped or panicking search counts nothing). Bucket i
// counts the samples at or under bound i and above bound i-1.
type LevelTally struct {
	Decisions       uint64
	DecideNs        int64 // summed decide latency
	Explored        int64 // summed states explored
	DecideBuckets   [len(decideBoundsNs)]uint64
	ExploredBuckets [len(exploredBounds)]uint64
}

// Tally counts what the bins stepped into it decided (see
// Session.StepBinIn): per level, each decision's latency and explored
// states — the §4.3 overhead — and the harness's tick counters. It is
// fixed-size, and counting into it allocates nothing.
type Tally struct {
	// Levels holds the per-level decision histograms, indexed like
	// TallyLevels.
	Levels [len(TallyLevels)]LevelTally
	// QoSViolations and DegradedTicks count control periods whose interval
	// mean response exceeded the target / that were decided through the
	// deterministic fallback; StaleObservations counts module observations
	// the input sanitizer held at the last good value.
	QoSViolations, DegradedTicks, StaleObservations uint64
}

// Add adds o's counts to t.
func (t *Tally) Add(o *Tally) {
	for l := range t.Levels {
		to, from := &t.Levels[l], &o.Levels[l]
		to.Decisions += from.Decisions
		to.DecideNs += from.DecideNs
		to.Explored += from.Explored
		for i := range to.DecideBuckets {
			to.DecideBuckets[i] += from.DecideBuckets[i]
		}
		for i := range to.ExploredBuckets {
			to.ExploredBuckets[i] += from.ExploredBuckets[i]
		}
	}
	t.QoSViolations += o.QoSViolations
	t.DegradedTicks += o.DegradedTicks
	t.StaleObservations += o.StaleObservations
}

// decision counts one decision at level, taken in ns and exploring
// explored states. A nil tally counts nothing.
func (t *Tally) decision(level obs.Level, ns int64, explored int) {
	if t == nil {
		return
	}
	lv := &t.Levels[level-obs.LevelL0]
	lv.Decisions++
	lv.DecideNs += ns
	lv.Explored += int64(explored)
	for b, bound := range decideBoundsNs {
		if ns <= bound {
			lv.DecideBuckets[b]++
			break
		}
	}
	for b, bound := range exploredBounds {
		if int64(explored) <= bound {
			lv.ExploredBuckets[b]++
			break
		}
	}
}
