package central

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceLoop is the naive one-step loop: every candidate priced over
// every sample with a plain sum += price loop, and the first candidate
// strictly cheaper than the best so far kept, from +Inf. It returns the
// winner (−1 when no candidate is finite), its cost, the candidate-samples
// priced, and how many of them a search that abandons each candidate at
// its first partial mean to meet the running best, before its last
// sample, prices instead.
func referenceLoop(k, n int, price func(ci, si int) float64) (best int, cost float64, naive, pruned int) {
	best, cost = -1, math.Inf(1)
	for ci := 0; ci < k; ci++ {
		sum, stop := 0.0, n
		for si := 0; si < n; si++ {
			sum += price(ci, si)
			if stop == n && si+1 < n && sum/float64(n) >= cost {
				stop = si + 1
			}
		}
		naive += n
		pruned += stop
		if mean := sum / float64(n); mean < cost {
			best, cost = ci, mean
		}
	}
	return best, cost, naive, pruned
}

// randomTable draws k candidates × n samples of non-negative costs. One
// trial in three draws small integers, so ties — which must never
// displace the best — are common; one in four makes some costs +Inf, as
// evaluate does for a configuration the fluid model rejects.
func randomTable(rng *rand.Rand, k, n int) [][]float64 {
	costs := make([][]float64, k)
	ties, infs := rng.Intn(3) == 0, rng.Intn(4) == 0
	for c := range costs {
		costs[c] = make([]float64, n)
		for si := range costs[c] {
			switch {
			case infs && rng.Intn(6) == 0:
				costs[c][si] = math.Inf(1)
			case ties:
				costs[c][si] = float64(rng.Intn(4))
			default:
				costs[c][si] = rng.Float64() * 10
			}
		}
	}
	return costs
}

// TestPrunedParallelBitIdenticalToNaiveBounded pins oneStep, the bounded
// search of the centralized baseline, against the naive one-step loop:
// across randomized cost tables and sample counts it returns the same
// winner at a bit-identical cost, and explores exactly the candidate-samples
// partial-mean pruning leaves, never more than the naive loop.
//
//hpm:pin search
func TestPrunedParallelBitIdenticalToNaiveBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k, n := 1+rng.Intn(6), 1+rng.Intn(4)
		costs := randomTable(rng, k, n)
		price := func(ci, si int) float64 { return costs[ci][si] }
		wantIdx, wantCost, naive, pruned := referenceLoop(k, n, price)
		idx, cost, explored := oneStep(k, n, price)
		if idx != wantIdx || math.Float64bits(cost) != math.Float64bits(wantCost) {
			t.Fatalf("trial %d: (%d, %v), want (%d, %v)", trial, idx, cost, wantIdx, wantCost)
		}
		if explored != pruned || explored > naive {
			t.Fatalf("trial %d: explored %d, want %d (naive %d)", trial, explored, pruned, naive)
		}
	}
}

func sumsToOne(g []float64) bool {
	s := 0.0
	for _, v := range g {
		s += v
	}
	return math.Abs(s-1) < 1e-9
}

// units returns g's entries in quanta, or false if one is off the grid.
func units(g []float64) ([]int, bool) {
	out := make([]int, len(g))
	for j, v := range g {
		u := v / quantum
		if math.Abs(u-math.Round(u)) > 1e-6 {
			return nil, false
		}
		out[j] = int(math.Round(u))
	}
	return out, true
}

func TestSimplexNeighboursValidity(t *testing.T) {
	gamma := []float64{0.5, 0.5, 0}
	mask := []bool{true, true, true}
	nbrs := simplexNeighbours(nil, map[string]struct{}{}, gamma, mask, 2)
	if len(nbrs) < 2 {
		t.Fatalf("neighbourhood too small: %d", len(nbrs))
	}
	// First entry is the input itself.
	if nbrs[0][0] != 0.5 || nbrs[0][1] != 0.5 {
		t.Errorf("first neighbour = %v, want input", nbrs[0])
	}
	for _, g := range nbrs {
		if _, ok := units(g); !ok || !sumsToOne(g) {
			t.Errorf("invalid neighbour %v", g)
		}
	}
}

func TestSimplexNeighboursMask(t *testing.T) {
	gamma := []float64{1, 0, 0}
	mask := []bool{true, true, false}
	for _, g := range simplexNeighbours(nil, map[string]struct{}{}, gamma, mask, 3) {
		if g[2] != 0 {
			t.Errorf("masked entry received mass: %v", g)
		}
	}
}

func TestSimplexNeighboursDepthGrows(t *testing.T) {
	gamma := []float64{1, 0, 0, 0}
	mask := []bool{true, true, true, true}
	d1 := simplexNeighbours(nil, map[string]struct{}{}, gamma, mask, 1)
	d3 := simplexNeighbours(nil, map[string]struct{}{}, gamma, mask, 3)
	if len(d3) <= len(d1) {
		t.Errorf("depth 3 (%d) not larger than depth 1 (%d)", len(d3), len(d1))
	}
}

func TestSimplexNeighboursNoDuplicates(t *testing.T) {
	gamma := []float64{0.5, 0.5}
	mask := []bool{true, true}
	nbrs := simplexNeighbours(nil, map[string]struct{}{}, gamma, mask, 4)
	if len(nbrs) != 9 {
		t.Errorf("%d neighbours, want the 9 splits within 4 quanta of 50/50", len(nbrs))
	}
	seen := map[string]bool{}
	for _, g := range nbrs {
		u, _ := units(g)
		if k := fmt.Sprint(u); seen[k] {
			t.Errorf("duplicate neighbour %v", g)
		} else {
			seen[k] = true
		}
	}
}

// TestGammaCandidatesPricedOnce: the seed's and the previous γ's
// neighbourhoods share one seen-set, so no γ is a candidate twice — at
// start-up, where the previous γ is the seed itself, and after a decision.
func TestGammaCandidatesPricedOnce(t *testing.T) {
	ctl, err := New(DefaultConfig(), testSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{QueueLens: []float64{60, 10, 0, 5}, LambdaHat: 180, Delta: 40, CHat: 0.0175, Available: []bool{true, true, true, true}}
	check := func(label string, inForce Decision) {
		t.Helper()
		obs.InForce = &inForce
		for _, alpha := range ctl.alphaCandidates(obs) {
			seen := map[string]bool{}
			for _, g := range ctl.gammaCandidates(alpha, inForce.Gamma) {
				u, _ := units(g)
				if k := fmt.Sprint(u); seen[k] {
					t.Fatalf("%s: α %v prices γ %v twice", label, alpha, g)
				} else {
					seen[k] = true
				}
			}
		}
	}
	fresh, err := ctl.fresh()
	if err != nil {
		t.Fatal(err)
	}
	check("start-up", fresh)
	dec, err := ctl.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	check("after a decision", dec)
}

// BenchmarkCentralDecide times one decision of a fresh flat controller at
// the neighbour depths the scalability study runs: 2 by default, 1 under
// -fast, where the larger clusters are affordable.
func BenchmarkCentralDecide(b *testing.B) {
	for _, bc := range []struct{ computers, depth int }{{4, 2}, {16, 1}} {
		b.Run(fmt.Sprintf("computers=%d/depth=%d", bc.computers, bc.depth), func(b *testing.B) {
			specs := testSpecs(bc.computers)
			obs := Observation{
				QueueLens: make([]float64, bc.computers),
				LambdaHat: float64(30 * bc.computers),
				Delta:     5,
				CHat:      0.0175,
			}
			cfg := DefaultConfig()
			cfg.NeighbourDepth = bc.depth
			b.ReportAllocs()
			explored := 0
			for i := 0; i < b.N; i++ {
				ctl, err := New(cfg, specs)
				if err != nil {
					b.Fatal(err)
				}
				dec, err := ctl.Decide(obs)
				if err != nil {
					b.Fatal(err)
				}
				explored = dec.Explored
			}
			b.ReportMetric(float64(explored), "explored")
		})
	}
}
