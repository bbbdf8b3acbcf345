// Package series provides uniformly sampled time-series containers and the
// small set of transformations the workload generators, forecasters, and
// reporting code need: slicing, smoothing, scaling, noise injection,
// summary statistics, CSV persistence, and ASCII plotting for the figure
// reproductions.
//
// A Series is a value sampled at a fixed step starting at time Start.
// All times are simulation seconds.
//
// Invariant: ReadCSV(WriteCSV(s)) reproduces s value-for-value (times are
// serialized at full float64 precision), which is what makes recorded
// traces replayable as first-class workload scenarios
// ("tracefile:<path>", see internal/workload).
package series

import "math/rand"

// Series is a uniformly sampled time series. The i-th sample covers the
// half-open interval [Start+i*Step, Start+(i+1)*Step).
//
// The zero value is an empty series and is ready to use.
type Series struct {
	// Start is the time of the first sample, in seconds.
	Start float64
	// Step is the sampling interval, in seconds. Must be > 0 for a
	// non-empty series.
	Step float64
	// Values holds one sample per interval.
	Values []float64
}

// New returns a zero-filled series with n samples at the given step.
func New(start, step float64, n int) *Series {
	return &Series{Start: start, Step: step, Values: make([]float64, n)}
}

// FromValues wraps the given samples in a Series. The slice is copied so the
// caller retains ownership of vals.
func FromValues(start, step float64, vals []float64) *Series {
	v := make([]float64, len(vals))
	copy(v, vals)
	return &Series{Start: start, Step: step, Values: v}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// End returns the time just past the last sample.
func (s *Series) End() float64 { return s.Start + float64(len(s.Values))*s.Step }

// TimeAt returns the start time of sample i.
func (s *Series) TimeAt(i int) float64 { return s.Start + float64(i)*s.Step }

// Scale multiplies every sample by k in place and returns the receiver.
func (s *Series) Scale(k float64) *Series {
	for i := range s.Values {
		s.Values[i] *= k
	}
	return s
}

// ClampMin raises every sample below lo to lo, in place, and returns the
// receiver. Workload counts use this to stay non-negative after noise.
func (s *Series) ClampMin(lo float64) *Series {
	for i, v := range s.Values {
		if v < lo {
			s.Values[i] = lo
		}
	}
	return s
}

// AddGaussianNoise adds independent N(0, sigma²) noise to samples in
// [from, to) using rng, in place, and returns the receiver. Indices are
// clamped to the valid range; an inverted range is a no-op.
func (s *Series) AddGaussianNoise(rng *rand.Rand, sigma float64, from, to int) *Series {
	if from < 0 {
		from = 0
	}
	if to > len(s.Values) {
		to = len(s.Values)
	}
	for i := from; i < to; i++ {
		s.Values[i] += rng.NormFloat64() * sigma
	}
	return s
}

// Smooth returns a new series produced by a centred moving average with the
// given window (forced odd by rounding up). Edges use the available samples,
// so the result has the same length as the input.
func (s *Series) Smooth(window int) *Series {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := New(s.Start, s.Step, len(s.Values))
	for i := range s.Values {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(s.Values) {
			hi = len(s.Values) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += s.Values[j]
		}
		out.Values[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Slice returns a copy of samples [from, to), clamped to the valid range.
func (s *Series) Slice(from, to int) *Series {
	if from < 0 {
		from = 0
	}
	if to > len(s.Values) {
		to = len(s.Values)
	}
	if from > to {
		from = to
	}
	return FromValues(s.TimeAt(from), s.Step, s.Values[from:to])
}

// Sum returns the sum of all samples.
func (s *Series) Sum() float64 {
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.Values))
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
