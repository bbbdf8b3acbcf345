// Package metrics provides the statistics and reporting substrate used by
// the simulator and the experiment harness: streaming means (Welford),
// percentiles, error measures for forecast evaluation, time-weighted
// averages for power accounting, and plain-text table rendering.
package metrics

import (
	"fmt"
	"math"
)

// Welford accumulates count and mean of a stream in a single pass by
// Welford's running-mean recurrence. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// Count returns the number of samples added.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Merge folds another accumulator into w (parallel Welford combination).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	w.mean += (o.mean - w.mean) * float64(o.n) / float64(n)
	w.n = n
}

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
