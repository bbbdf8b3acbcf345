package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of v (mean of the two middle values for
// an even count) without reordering the caller's slice; 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond counts the samples strictly above percentile p's rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailLadder holds the percentiles a tail metric may be reported at.
var tailLadder = []float64{0.50, 0.90, 0.95, 0.98, 0.99}

// pickTail returns the highest ladder percentile that still has at least
// ten samples beyond it (choosing-metrics §1); with too few samples for
// any tail it falls back to the median. Work is fixed per (workload,
// seconds), so a workload's tail percentile is the same on every run of
// one length.
func pickTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// millis converts durations to float milliseconds, ascending.
func millis(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// relDiff is |a−b| / min(|a|,|b|), the disagreement measure of the
// repeatability harness; two zeros agree exactly.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}
