package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	cases := []struct {
		base, growth float64
		buckets      int
	}{
		{0, 1.5, 10}, {1, 1, 10}, {1, 0.5, 10}, {1, 1.5, 0},
	}
	for _, c := range cases {
		if _, err := NewHistogram(c.base, c.growth, c.buckets); err == nil {
			t.Errorf("NewHistogram(%v, %v, %d): want error", c.base, c.growth, c.buckets)
		}
	}
	if _, err := NewHistogram(0.001, 1.2, 64); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := DefaultLatencyHistogram()
	rng := rand.New(rand.NewSource(3))
	var xs []float64
	for i := 0; i < 100000; i++ {
		// Lognormal-ish latencies between ~1 ms and ~20 s.
		x := math.Exp(rng.NormFloat64()*1.2 - 2)
		xs = append(xs, x)
		h.Observe(x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := xs[int(q*float64(len(xs)))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.16 {
			t.Errorf("q=%v: got %v, exact %v (rel err %.2f, want <= growth-1)", q, got, exact, rel)
		}
	}
	if h.Count() != 100000 {
		t.Errorf("Count = %d", h.Count())
	}
	// Exact mean and max.
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if math.Abs(h.Mean()-sum/100000) > 1e-9 {
		t.Errorf("Mean = %v, want %v", h.Mean(), sum/100000)
	}
	if h.Max() != xs[len(xs)-1] {
		t.Errorf("Max = %v, want %v", h.Max(), xs[len(xs)-1])
	}
}

func TestHistogramEdges(t *testing.T) {
	h, err := NewHistogram(1, 2, 4) // buckets [1,2) [2,4) [4,8) [8,16)
	if err != nil {
		t.Fatal(err)
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.Observe(0.1)  // under base
	h.Observe(-5)   // clamped
	h.Observe(3)    // bucket 1
	h.Observe(1000) // clamps to last bucket
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	// Quantile below the base maps to base/2.
	if got := h.Quantile(0.25); got != 0.5 {
		t.Errorf("under-base quantile = %v, want 0.5", got)
	}
	// Max is exact even when bucketed at the top.
	if h.Max() != 1000 {
		t.Errorf("Max = %v", h.Max())
	}
	if got := h.Quantile(1); got < 8 {
		t.Errorf("top quantile = %v, want within last bucket", got)
	}
	// Quantile args clamped.
	if h.Quantile(-1) != h.Quantile(0.0000001) {
		t.Error("negative q not clamped")
	}
}

// Satellite coverage: the degenerate shapes the general tests skip —
// fully empty, a single observation, and mass past the top bucket.

func TestHistogramEmpty(t *testing.T) {
	h, err := NewHistogram(1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram reports Count=%d Mean=%v Max=%v, want zeros",
			h.Count(), h.Mean(), h.Max())
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h, err := NewHistogram(1, 2, 4) // buckets [1,2) [2,4) [4,8) [8,16)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(3)
	if h.Count() != 1 || h.Mean() != 3 || h.Max() != 3 {
		t.Fatalf("single sample: Count=%d Mean=%v Max=%v", h.Count(), h.Mean(), h.Max())
	}
	// Every quantile of a one-sample histogram is that sample's bucket
	// midpoint: 2·√2 for [2,4).
	want := 2 * math.Sqrt2
	for _, q := range []float64{0.001, 0.5, 1} {
		if got := h.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("single-sample Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h, err := NewHistogram(1, 2, 4) // top bucket [8,16)
	if err != nil {
		t.Fatal(err)
	}
	// All mass far beyond the covered range: clamped into the top bucket,
	// with Max and Mean staying exact.
	for i := 0; i < 10; i++ {
		h.Observe(1e6)
	}
	if h.Count() != 10 || h.Max() != 1e6 || h.Mean() != 1e6 {
		t.Fatalf("overflow: Count=%d Max=%v Mean=%v", h.Count(), h.Max(), h.Mean())
	}
	// The quantile estimate is the top bucket's midpoint — bounded, not
	// the wild out-of-range value.
	want := 8 * math.Sqrt2
	if got := h.Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("overflow Quantile(0.5) = %v, want top-bucket midpoint %v", got, want)
	}
	// Exactly-at-top-edge observations land in the top bucket too (the
	// index computation may round onto len(buckets)).
	h2, err := NewHistogram(1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	h2.Observe(16)
	h2.Observe(15.999)
	if h2.Count() != 2 {
		t.Fatalf("edge Count = %d", h2.Count())
	}
	if got := h2.Quantile(1); math.Abs(got-8*math.Sqrt2) > 1e-12 {
		t.Errorf("edge Quantile(1) = %v, want %v", got, 8*math.Sqrt2)
	}
}
