package metrics

import (
	"fmt"
	"math"
)

// Histogram is a log-bucketed latency histogram: bucket i covers
// [Base·Growth^i, Base·Growth^(i+1)). It supports quantile estimation with
// bounded relative error (Growth−1) using constant memory, which lets the
// plant track per-request response percentiles over tens of millions of
// requests. The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	base   float64
	growth float64
	// logGrowth caches math.Log(growth): Observe sits on the simulator's
	// per-request path, and the cached divisor is bit-identical to
	// recomputing the Log each call.
	logGrowth float64
	buckets   []int64
	under     int64 // observations below base
	count     int64
	sum       float64
	max       float64
}

// NewHistogram returns a histogram with the given lowest bucket bound
// (base > 0), per-bucket growth factor (> 1), and bucket count. With
// base 1 ms, growth 1.15 and 96 buckets the range spans 1 ms to ~8 h with
// ≤ 15% relative quantile error.
func NewHistogram(base, growth float64, buckets int) (*Histogram, error) {
	if base <= 0 {
		return nil, fmt.Errorf("metrics: histogram base %v <= 0", base)
	}
	if growth <= 1 {
		return nil, fmt.Errorf("metrics: histogram growth %v <= 1", growth)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("metrics: histogram needs >= 1 bucket, got %d", buckets)
	}
	return &Histogram{base: base, growth: growth, logGrowth: math.Log(growth), buckets: make([]int64, buckets)}, nil
}

// DefaultLatencyHistogram covers 1 ms .. ~9 h at ≤ 15% relative error —
// suitable for the simulator's response times.
func DefaultLatencyHistogram() *Histogram {
	h, err := NewHistogram(0.001, 1.15, 120)
	if err != nil {
		// Parameters are compile-time constants; this cannot fail.
		panic(err)
	}
	return h
}

// Observe folds one sample in. Negative samples are clamped to zero
// (counted below base).
func (h *Histogram) Observe(x float64) {
	h.count++
	if x > 0 {
		h.sum += x
	}
	if x > h.max {
		h.max = x
	}
	if x < h.base {
		h.under++
		return
	}
	i := int(math.Log(x/h.base) / h.logGrowth)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the sample mean (exact, not bucketed).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (exact).
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an estimate of the q-th quantile (0 < q ≤ 1) using
// the geometric midpoint of the containing bucket; it returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank <= h.under {
		return h.base / 2
	}
	seen := h.under
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			lo := h.base * math.Pow(h.growth, float64(i))
			return lo * math.Sqrt(h.growth) // geometric midpoint
		}
	}
	return h.max
}
