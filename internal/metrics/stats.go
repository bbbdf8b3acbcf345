// Package metrics provides the statistics and reporting substrate used by
// the simulator and the experiment harness: latency histograms (exact mean,
// bucketed percentiles), error measures for forecast evaluation,
// time-weighted averages for power accounting, and plain-text table
// rendering.
package metrics

import (
	"fmt"
	"math"
)

// MAE returns the mean absolute error between two equal-length slices.
func MAE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: MAE length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum / float64(len(a)), nil
}

// TimeWeighted accumulates the time integral of a piecewise-constant signal,
// e.g. instantaneous power into energy. The zero value is ready to use;
// the first Observe call only records the starting point.
type TimeWeighted struct {
	lastT   float64
	lastV   float64
	total   float64
	started bool
}

// Observe records that the signal took value v from the previous
// observation time up to time t. Calls must have non-decreasing t.
func (tw *TimeWeighted) Observe(t, v float64) {
	if tw.started && t > tw.lastT {
		tw.total += tw.lastV * (t - tw.lastT)
	}
	tw.lastT, tw.lastV, tw.started = t, v, true
}

// FinishAt closes the integral at time t using the last observed value and
// returns the total. Further Observe calls continue from t.
func (tw *TimeWeighted) FinishAt(t float64) float64 {
	tw.Observe(t, tw.lastV)
	return tw.total
}

// Total returns the integral accumulated so far.
func (tw *TimeWeighted) Total() float64 { return tw.total }

// Mean returns the time-weighted mean over [first observation, last], or 0
// if less than two observations were made.
func (tw *TimeWeighted) Mean(start float64) float64 {
	if !tw.started || tw.lastT <= start {
		return 0
	}
	return tw.total / (tw.lastT - start)
}
