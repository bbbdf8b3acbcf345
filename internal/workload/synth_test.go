package workload

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"hierctl/internal/des"
	"hierctl/internal/series"
)

// TestRequestSize pins what a synthesized request costs: a feed's one
// batch buffer is the peak bin × this, and it is exactly the (arrival,
// demand) pair a cluster.Computer queues.
//
//hpm:pin mechanics
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 16 {
		t.Fatalf("Request is %d bytes, want 16", got)
	}
}

// TestSynthBinOrderedUniform pins what the arrival sort used to provide, as
// properties of the synthesis itself: over 10,000 bins cycling through sizes
// on both sides of every old cutover, a bin's arrivals are born
// non-decreasing inside [start, start+step], and they are the order
// statistics of uniform offsets — the k-th of n has mean k/(n+1)·step
// (checked for the first, middle and last within 4 standard errors of the
// Beta(k, n+1−k) variance) and the pooled offsets fill 20 equal cells
// without a χ² rejection at 10⁻⁴. The seed is fixed, so none of it can flake.
// A bin of no arrivals, a negative count included, is empty and draws
// nothing — through Generator and Feed alike, or the two would part ways
// after a negative trace value.
//
//hpm:pin mechanics
func TestSynthBinOrderedUniform(t *testing.T) {
	store := newTestStore(t, DefaultStoreConfig())
	src := des.NewStream(9, "workload")
	rng := rand.New(src)
	sizes := []int{0, 1, 2, 15, 16, 900, -3}
	const bins, step = 10000, 30.0
	type kth struct {
		k   int
		sum float64
	}
	probes := make([][]kth, len(sizes))
	for s, n := range sizes {
		if n > 0 {
			probes[s] = []kth{{k: 1}, {k: (n + 1) / 2}, {k: n}}
		}
	}
	var cells [20]int
	runs := make([]float64, len(sizes))
	pooled := 0
	var buf []Request
	for b := 0; b < bins; b++ {
		s := b % len(sizes)
		n, start := sizes[s], float64(b)*step
		before := src.State()
		buf = synthBin(buf, n, start, step, store, rng)
		if n <= 0 {
			if len(buf) != 0 || src.State() != before {
				t.Fatalf("bin %d (n=%d): %d requests, stream moved: %v", b, n, len(buf), src.State() != before)
			}
			continue
		}
		if len(buf) != n {
			t.Fatalf("bin %d: %d requests, want %d", b, len(buf), n)
		}
		prev := start
		for i, r := range buf {
			if r.Arrival < prev || r.Arrival > start+step {
				t.Fatalf("bin %d (n=%d): arrival %d = %v after %v, bin [%v, %v]", b, n, i, r.Arrival, prev, start, start+step)
			}
			prev = r.Arrival
			cells[min(int((r.Arrival-start)/step*float64(len(cells))), len(cells)-1)]++
		}
		pooled += n
		runs[s]++
		for p := range probes[s] {
			probes[s][p].sum += buf[probes[s][p].k-1].Arrival - start
		}
	}
	negative := series.FromValues(0, step, []float64{-3})
	genSrc, feedSrc := des.NewStream(9, "workload"), des.NewStream(9, "workload")
	gen, err := NewGenerator(negative, store, rand.New(genSrc))
	if err != nil {
		t.Fatal(err)
	}
	feed, err := NewFeed(0, step, store, rand.New(feedSrc))
	if err != nil {
		t.Fatal(err)
	}
	_, genReqs, _ := gen.NextBin()
	_, feedReqs := feed.Push(negative.Values[0])
	if len(genReqs) != 0 || len(feedReqs) != 0 || genSrc.State() != feedSrc.State() {
		t.Errorf("negative bin: generator made %d requests, feed %d; streams agree: %v",
			len(genReqs), len(feedReqs), genSrc.State() == feedSrc.State())
	}
	for s, n := range sizes {
		for _, p := range probes[s] {
			k, n1 := float64(p.k), float64(n+1)
			want := k / n1 * step
			se := step * math.Sqrt(k*(n1-k)/(n1*n1*(n1+1))/runs[s])
			if got := p.sum / runs[s]; math.Abs(got-want) > 4*se {
				t.Errorf("n=%d: arrival %d has mean offset %v, want %v ± %v", n, p.k, got, want, 4*se)
			}
		}
	}
	chi2, expect := 0.0, float64(pooled)/float64(len(cells))
	for _, c := range cells {
		chi2 += (float64(c) - expect) * (float64(c) - expect) / expect
	}
	// The 1 − 10⁻⁴ quantile of χ² with 19 degrees of freedom.
	if chi2 > 50.795 {
		t.Errorf("pooled offsets reject uniformity: χ² = %v over %d requests, cells %v", chi2, pooled, cells)
	}
}
