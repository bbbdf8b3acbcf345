package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hierctl/internal/workload"
)

// ringHarness is what the harness's arrival spread was before it became
// runs of the feed's batch: one request slice per tick of a bin, every
// request copied into the slot its offset falls in. Its spread is that
// method's body verbatim, kept as the oracle the way the legacy loops are.
type ringHarness struct {
	cfg     Config
	sub     int
	preroll float64
	ring    [][]workload.Request
}

func (h *ringHarness) spread(bin int, reqs []workload.Request) {
	binStart := h.cfg.Start + float64(bin)*h.cfg.BinSeconds
	for _, req := range reqs {
		d := int((req.Arrival - binStart) / h.cfg.PeriodSeconds)
		req.Arrival += h.preroll - h.cfg.Start
		if d < 0 {
			d = 0
		}
		if d >= h.sub {
			d = h.sub - 1
		}
		h.ring[d] = append(h.ring[d], req)
	}
}

// TestSpreadRunsMatchRingOracle pins the spread against the ring it
// replaced: for an arrival-sorted batch — what the feed hands over — tick
// d's run batch[cuts[d]:cuts[d+1]] is the ring's slot d element for
// element, rebased arrivals included, and the batch is the caller's own
// memory, not a copy. Batches are drawn the way synthBin draws them, plus
// the clamp cases: an arrival before the bin, the largest u below 1 (which
// can round onto the bin's right edge), an empty bin, and bins with fewer
// requests than ticks.
//
//hpm:pin mechanics
func TestSpreadRunsMatchRingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	periods := []float64{0.25, 1, 7.5, 30, 45, 0.1}
	starts := []float64{0, 3600, 86400, 1.5e6, 977.25, 1e-3}
	prerolls := []float64{0, 120, 17.5}
	for trial := 0; trial < 2000; trial++ {
		sub := 1 + rng.Intn(12)
		period := periods[rng.Intn(len(periods))]
		cfg := Config{
			PeriodSeconds: period,
			BinSeconds:    period * float64(sub),
			Start:         starts[rng.Intn(len(starts))],
		}
		preroll := prerolls[rng.Intn(len(prerolls))]
		bin := rng.Intn(5000)
		binStart := cfg.Start + float64(bin)*cfg.BinSeconds

		var n int
		switch trial % 4 {
		case 0:
			n = 0 // empty bin
		case 1:
			n = rng.Intn(sub + 1) // fewer requests than ticks
		default:
			n = rng.Intn(200)
		}
		reqs := make([]workload.Request, 0, n+2)
		for i := 0; i < n; i++ {
			reqs = append(reqs, workload.Request{Arrival: binStart + rng.Float64()*cfg.BinSeconds, Demand: float64(i)})
		}
		if trial%3 == 0 {
			reqs = append(reqs,
				workload.Request{Arrival: binStart - rng.Float64()*period, Demand: -1},
				workload.Request{Arrival: binStart + math.Nextafter(1, 0)*cfg.BinSeconds, Demand: -2})
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })

		oracle := &ringHarness{cfg: cfg, sub: sub, preroll: preroll, ring: make([][]workload.Request, sub)}
		oracle.spread(bin, append([]workload.Request(nil), reqs...))

		h := &Harness{cfg: cfg, sub: sub, preroll: preroll, cuts: make([]int, sub+1)}
		// A stale cut from a fuller bin must not survive into this one.
		for d := range h.cuts {
			h.cuts[d] = 1 << 20
		}
		h.cuts[0] = 0
		h.spread(bin, reqs)

		if len(reqs) > 0 && &h.batch[0] != &reqs[0] {
			t.Fatalf("trial %d: the harness copied the batch", trial)
		}
		if h.cuts[0] != 0 || h.cuts[sub] != len(reqs) {
			t.Fatalf("trial %d: cuts %v do not span the %d-request batch", trial, h.cuts, len(reqs))
		}
		for d := 0; d < sub; d++ {
			run, want := h.batch[h.cuts[d]:h.cuts[d+1]], oracle.ring[d]
			if len(run) != len(want) {
				t.Fatalf("trial %d (sub %d, period %v, start %v, bin %d) tick %d: run of %d, ring slot of %d",
					trial, sub, period, cfg.Start, bin, d, len(run), len(want))
			}
			for i := range want {
				if run[i] != want[i] {
					t.Fatalf("trial %d tick %d request %d: run has %+v, ring slot %+v", trial, d, i, run[i], want[i])
				}
			}
		}
	}
}
