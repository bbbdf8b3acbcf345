package workload

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestRequestSize pins what a synthesized request costs: a feed's batch
// and its sort scratch are each the peak bin × this, and it is exactly the
// (arrival, demand) pair a cluster.Computer queues.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 16 {
		t.Fatalf("Request is %d bytes, want 16", got)
	}
}

// TestSortByArrivalMatchesStableSort pins the bucket sort against the
// stdlib stable sort over random batches, including tiny bins, skewed
// (non-uniform) keys, and duplicate keys — the bucket scatter plus
// insertion cleanup must be a stable by-Arrival sort in every case.
func TestSortByArrivalMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch binScratch
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(600)
		start := rng.Float64() * 1000
		step := 30.0
		reqs := make([]Request, n)
		for i := range reqs {
			arrival := start + rng.Float64()*step
			switch trial % 3 {
			case 1: // skewed: mass piled near the bin start
				arrival = start + rng.Float64()*rng.Float64()*step
			case 2: // coarse: duplicate keys across distinct payloads
				arrival = start + float64(rng.Intn(8))*step/8
			}
			reqs[i] = Request{Arrival: arrival, Demand: float64(i)}
		}
		want := append([]Request(nil), reqs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Arrival < want[j].Arrival })
		got := sortByArrival(reqs, start, step, &scratch)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: index %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSortByArrivalOutOfBinKeys: keys outside [start, start+step) (not
// produced by the generator, but legal inputs) clamp into the edge
// buckets and still sort correctly.
func TestSortByArrivalOutOfBinKeys(t *testing.T) {
	var scratch binScratch
	reqs := make([]Request, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range reqs {
		reqs[i] = Request{Arrival: -50 + rng.Float64()*200, Demand: float64(i)}
	}
	got := sortByArrival(reqs, 0, 30, &scratch)
	for i := 1; i < len(got); i++ {
		if got[i-1].Arrival > got[i].Arrival {
			t.Fatalf("unsorted at %d: %v > %v", i, got[i-1].Arrival, got[i].Arrival)
		}
	}
}

func BenchmarkSortByArrival400(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var scratch binScratch
	reqs := make([]Request, 400)
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j] = Request{Arrival: rng.Float64() * 30, Demand: float64(j)}
		}
		reqs = sortByArrival(reqs, 0, 30, &scratch)
	}
}

// TestSortByArrivalReusesCapacity drives the sort the way synthBin does —
// the returned batch is refilled for the next bin, the scratch ping-pongs
// — across shrinking and growing n on both sides of the 16-request
// insertion-sort cutover. The result must still equal the stdlib stable
// sort, and neither buffer may ever lose capacity: a bin smaller than its
// predecessor must not clip what the next larger bin needs.
func TestSortByArrivalReusesCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{400, 30, 900, 7, 16, 15, 650, 0, 1, 899, 17, 900, 2, 300}
	var scratch binScratch
	var buf []Request
	peak := 0
	for trial := 0; trial < 20*len(sizes); trial++ {
		n := sizes[trial%len(sizes)]
		if trial >= len(sizes) && trial%5 == 0 {
			n = rng.Intn(901)
		}
		start, step := float64(trial)*30, 30.0
		if cap(buf) < n {
			buf = make([]Request, 0, n)
		}
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, Request{Arrival: start + rng.Float64()*step, Demand: float64(i)})
		}
		want := append([]Request(nil), buf...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Arrival < want[j].Arrival })
		buf = sortByArrival(buf, start, step, &scratch)
		if len(buf) != len(want) {
			t.Fatalf("trial %d (n=%d): length %d, want %d", trial, n, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d (n=%d): index %d: got %+v, want %+v", trial, n, i, buf[i], want[i])
			}
		}
		if n > peak {
			peak = n
		}
		if cap(buf) < peak || (peak >= 16 && cap(scratch.tmp) < peak) {
			t.Fatalf("trial %d (n=%d): capacity clipped below the peak bin %d: batch %d, scratch %d",
				trial, n, peak, cap(buf), cap(scratch.tmp))
		}
	}
}
