// Package central implements the flat, non-hierarchical controller the
// paper argues against in §3: one optimizer that jointly decides every
// computer's operating state α_j, load fraction γ_j, and frequency u_j for
// the whole cluster. It exists to reproduce the paper's scalability claim
// quantitatively — "where a centralized controller must decide the
// variables {γ, α, u} for each of the n computers in the cluster, in our
// method the L2 controller only decides a single-dimensional variable" —
// by measuring how the flat controller's explored-state count and decision
// time grow with cluster size compared to the hierarchy's.
//
// The controller uses the same machinery the hierarchy does — the fluid
// queue model for prediction, a Kalman filter for arrivals, bounded
// neighbourhood search over the joint configuration — so the comparison
// isolates the effect of decomposition, not implementation quality.
package central

import (
	"fmt"
	"math"
	"slices"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/llc"
	"hierctl/internal/queue"
)

// The flat controller mirrors the hierarchy's defaults: it decides every
// T_L1 at T_L0 granularity, against the L0 set-point, with the same Q, R
// and W, and quantizes load fractions like L1.
const (
	// subSteps is the number of T_L0 sub-periods of the fluid prediction
	// in one decision period.
	subSteps = int(controller.DefaultPeriodL1 / controller.PeriodL0)
	// freqSteps bounds how many frequency-index moves (±1 per computer)
	// are explored per period.
	freqSteps = 1
	// minOn keeps at least this many computers operational.
	minOn = 1
	// quantum is the step of the load fractions: 20 units, so one byte
	// holds an entry's unit count.
	quantum = controller.DefaultQuantumL1
)

// Config parameterizes the flat controller.
type Config struct {
	// NeighbourDepth bounds the γ neighbourhood per candidate α/u.
	NeighbourDepth int
}

// DefaultConfig mirrors the hierarchy's settings.
func DefaultConfig() Config {
	return Config{NeighbourDepth: 2}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NeighbourDepth < 1 {
		return fmt.Errorf("central: neighbour depth %d < 1", c.NeighbourDepth)
	}
	return nil
}

// Decision is the flat controller's joint output.
type Decision struct {
	// Alpha[j] is the on/off state of computer j (flat index).
	Alpha []bool
	// Gamma[j] is computer j's share of the whole cluster's arrivals.
	Gamma []float64
	// FreqIdx[j] is computer j's DVFS operating point.
	FreqIdx []int
	// Explored counts candidate configurations evaluated.
	Explored int
}

// Controller is the flat cluster controller. Construct with New.
//
// It holds no decision between calls: the joint configuration in force is
// part of what it observes (Observation.InForce), so a decision is a pure
// function of its observation. Each returned decision's slices are freshly
// built, so a caller may keep one as the next decision's InForce.
type Controller struct {
	cfg   Config
	specs []cluster.ComputerSpec
	caps  []float64 // capacity weights seeding γ allocations
}

// New builds a flat controller over the given computers (flattened from
// the cluster spec; the flat controller ignores module boundaries).
func New(cfg Config, specs []cluster.ComputerSpec) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("central: no computers")
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("central: computer %d: %w", i, err)
		}
	}
	c := &Controller{cfg: cfg, specs: specs, caps: make([]float64, len(specs))}
	for j := range specs {
		c.caps[j] = specs[j].SpeedFactor
	}
	return c, nil
}

// fresh returns the configuration in force before any decision: every
// computer on at its top frequency, the capacity split snapped to the
// quantum.
func (c *Controller) fresh() (Decision, error) {
	n := len(c.specs)
	d := Decision{Alpha: make([]bool, n), FreqIdx: make([]int, n)}
	for j := range c.specs {
		d.Alpha[j] = true
		d.FreqIdx[j] = len(c.specs[j].FrequenciesHz) - 1
	}
	var err error
	d.Gamma, err = controller.SnapSimplex(c.caps, d.Alpha, quantum)
	return d, err
}

// Observation is the flat controller's input.
type Observation struct {
	// QueueLens per computer (flat order).
	QueueLens []float64
	// LambdaHat is the forecast cluster arrival rate (requests/second).
	LambdaHat float64
	// Delta is the forecast uncertainty band half-width.
	Delta float64
	// CHat is the processing-time estimate (seconds).
	CHat float64
	// Available marks computers that may be powered (false = failed).
	Available []bool
	// InForce is the joint configuration in force, from which the
	// decision prices its moves: the previous decision's. Nil means the
	// configuration before any decision (see Controller.fresh).
	InForce *Decision
}

// Decide jointly picks (α, γ, u) for the next period by bounded search
// over the flat configuration space: candidate α vectors (the one in force
// plus single toggles plus all-on), for each a γ neighbourhood on the
// quantized simplex, and per-computer frequency moves within freqSteps of
// the operating point in force. The full cartesian product α×γ×u is
// intractable even at n = 8 (this is exactly the §3 dimensionality
// argument), so the search uses coordinate descent per α candidate: best γ
// at held frequencies, then best frequency vector at the chosen γ. Even
// with that concession the explored-state count grows super-linearly with
// the cluster size, which is what the scalability experiment measures.
// The cost of one candidate is the fluid-model cost accumulated over the
// period at T_L0 granularity, with the same slack/power/switch
// weights the hierarchy uses.
func (c *Controller) Decide(obs Observation) (Decision, error) {
	n := len(c.specs)
	if len(obs.QueueLens) != n {
		return Decision{}, fmt.Errorf("central: observation has %d queues, cluster has %d", len(obs.QueueLens), n)
	}
	if obs.Available == nil {
		obs.Available = make([]bool, n)
		for j := range obs.Available {
			obs.Available[j] = true
		}
	}
	if len(obs.Available) != n {
		return Decision{}, fmt.Errorf("central: availability size mismatch")
	}
	if obs.InForce == nil {
		fresh, err := c.fresh()
		if err != nil {
			return Decision{}, err
		}
		obs.InForce = &fresh
	}
	if in := obs.InForce; len(in.Alpha) != n || len(in.Gamma) != n || len(in.FreqIdx) != n {
		return Decision{}, fmt.Errorf("central: configuration in force size mismatch")
	}
	if obs.CHat <= 0 {
		return Decision{}, fmt.Errorf("central: non-positive c-hat")
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	// With every computer down there is nothing to search: decide all-off
	// at the frequencies in force so the run keeps going, as the
	// hierarchy's L1 does for a fully failed module.
	if countOn(obs.Available) == 0 {
		return Decision{Alpha: make([]bool, n), Gamma: make([]float64, n), FreqIdx: obs.InForce.FreqIdx}, nil
	}
	samples := []float64{obs.LambdaHat}
	if obs.Delta > 0 {
		samples = []float64{math.Max(0, obs.LambdaHat-obs.Delta), obs.LambdaHat, obs.LambdaHat + obs.Delta}
	}

	// Each α candidate is searched against its own +Inf incumbent, and the
	// first strictly cheaper candidate wins. Every candidate vector is
	// freshly built, so the winner's slices are returned without copying.
	best := Decision{}
	bestCost := math.Inf(1)
	explored := 0
	for _, alpha := range c.alphaCandidates(obs) {
		cost, dec, searched := c.searchAlpha(alpha, obs, samples)
		explored += searched
		if cost < bestCost {
			bestCost = cost
			best = dec
		}
	}
	if math.IsInf(bestCost, 1) {
		return Decision{}, fmt.Errorf("central: no candidate configuration")
	}
	best.Explored = explored
	return best, nil
}

// searchAlpha runs one α candidate's two passes — the best γ at held
// frequencies, then the best frequency vector at that γ — each one
// oneStep. It returns the candidate's cost (+Inf when it has no finite
// configuration), its configuration, and the states both passes explored.
func (c *Controller) searchAlpha(alpha []bool, obs Observation, samples []float64) (float64, Decision, int) {
	// freqs[0] holds every computer at its frequency in force.
	freqs := c.freqCandidates(alpha, obs.InForce.FreqIdx)
	gammas := c.gammaCandidates(alpha, obs.InForce.Gamma)
	gi, _, explored := oneStep(len(gammas), len(samples), func(ci, si int) float64 {
		return c.evaluate(alpha, gammas[ci], freqs[0], obs, samples[si])
	})
	if gi < 0 {
		return math.Inf(1), Decision{}, explored
	}
	fi, cost, searched := oneStep(len(freqs), len(samples), func(ci, si int) float64 {
		return c.evaluate(alpha, gammas[gi], freqs[ci], obs, samples[si])
	})
	explored += searched
	if fi < 0 {
		return math.Inf(1), Decision{}, explored
	}
	return cost, Decision{Alpha: alpha, Gamma: gammas[gi], FreqIdx: freqs[fi]}, explored
}

// oneStep searches k candidates of n samples each: a candidate costs the
// mean of its per-sample prices, summed in sample order, and the first
// candidate strictly cheaper than the best so far wins, starting from
// +Inf. A candidate whose partial mean sum/n meets the best before its
// last sample is abandoned: prices are non-negative (slack, power and
// switch terms), so it could at best tie, and a tie never displaces the
// best. It returns the winner's index (−1 when no candidate is finite),
// its cost, and the candidate-samples priced — the §4.3 overhead metric.
//
//hpm:hotpath
func oneStep(k, n int, price func(ci, si int) float64) (best int, cost float64, explored int) {
	best, cost = -1, math.Inf(1)
next:
	for ci := 0; ci < k; ci++ {
		sum := 0.0
		for si := 0; si < n; si++ {
			sum += price(ci, si)
			explored++
			if si+1 < n && sum/float64(n) >= cost {
				continue next
			}
		}
		if mean := sum / float64(n); mean < cost {
			best, cost = ci, mean
		}
	}
	return best, cost, explored
}

// evaluate prices a joint configuration: fluid-model slack + power per
// sub-period per on computer, plus switch-on transients.
func (c *Controller) evaluate(alpha []bool, gamma []float64, freq []int, obs Observation, lambda float64) float64 {
	total := 0.0
	for j := range c.specs {
		if !alpha[j] {
			continue
		}
		if !obs.InForce.Alpha[j] {
			total += controller.DefaultSwitchWeight
		}
		phi := c.specs[j].Phi(freq[j])
		state := queue.State{Q: obs.QueueLens[j]}
		lamJ := gamma[j] * lambda
		for s := 0; s < subSteps; s++ {
			next, err := queue.Step(state, queue.Params{
				Lambda: lamJ,
				C:      obs.CHat / c.specs[j].SpeedFactor,
				Phi:    phi,
				T:      controller.PeriodL0,
			})
			if err != nil {
				return math.Inf(1)
			}
			total += controller.SlackWeight*llc.Slack(next.R, controller.EffectiveTarget) +
				controller.PowerWeight*c.specs[j].Power.Draw(phi, true)
			state = next
		}
	}
	return total
}

// alphaCandidates mirrors the hierarchy's bounded on/off set, but over the
// whole cluster: the vector in force, every single toggle,
// all-available-on.
func (c *Controller) alphaCandidates(obs Observation) [][]bool {
	n := len(c.specs)
	avail := obs.Available
	base := make([]bool, n)
	for j := range base {
		base[j] = obs.InForce.Alpha[j] && avail[j]
	}
	for j := 0; countOn(base) < minOn && j < n; j++ {
		if avail[j] && !base[j] {
			base[j] = true
		}
	}
	seen := map[string]bool{}
	var out [][]bool
	add := func(a []bool) {
		if countOn(a) < minOn {
			return
		}
		k := boolKey(a)
		if !seen[k] {
			seen[k] = true
			out = append(out, append([]bool(nil), a...))
		}
	}
	add(base)
	for j := 0; j < n; j++ {
		cand := append([]bool(nil), base...)
		if cand[j] {
			cand[j] = false
		} else if avail[j] {
			cand[j] = true
		} else {
			continue
		}
		add(cand)
	}
	allOn := make([]bool, n)
	for j := range allOn {
		allOn[j] = avail[j]
	}
	add(allOn)
	return out
}

// gammaCandidates is the quantized-simplex neighbourhood over the whole
// cluster — the joint γ space whose size grows combinatorially with n:
// the seed's neighbourhood, then that of the γ in force, prev. One
// seen-set spans both, so each γ is priced once; a repeat could only tie
// its first copy, and a tie never displaces the best.
func (c *Controller) gammaCandidates(alpha []bool, prev []float64) [][]float64 {
	seed, err := controller.SnapSimplex(c.caps, alpha, quantum)
	if err != nil {
		return nil
	}
	seen := map[string]struct{}{}
	cands := simplexNeighbours(nil, seen, seed, alpha, c.cfg.NeighbourDepth)
	if prev, err := controller.SnapSimplex(prev, alpha, quantum); err == nil {
		cands = simplexNeighbours(cands, seen, prev, alpha, 1)
	}
	return cands
}

// simplexNeighbours appends to out the quantized-simplex neighbourhood of
// gamma: every vector reached by moving up to depth quanta, one at a
// time, from one masked entry to another, in breadth-first order with
// gamma itself first. Entries outside the mask stay zero. A vector in seen
// — reached twice, or already in out — is kept once, recognized by its
// unit counts, one byte an entry.
func simplexNeighbours(out [][]float64, seen map[string]struct{}, gamma []float64, mask []bool, depth int) [][]float64 {
	key := make([]byte, len(gamma))
	add := func(g []float64) bool {
		for j, v := range g {
			key[j] = byte(int(math.Round(v / quantum)))
		}
		if _, ok := seen[string(key)]; ok {
			return false
		}
		seen[string(key)] = struct{}{}
		out = append(out, slices.Clone(g))
		return true
	}
	add(gamma)
	frontier := [][]float64{gamma}
	cand := make([]float64, len(gamma))
	for d := 0; d < depth; d++ {
		var next [][]float64
		for _, g := range frontier {
			for a := range g {
				if !mask[a] || g[a] < quantum-1e-9 {
					continue
				}
				for b := range g {
					if b == a || !mask[b] {
						continue
					}
					copy(cand, g)
					cand[a] -= quantum
					cand[b] += quantum
					if cand[a] < -1e-9 {
						continue
					}
					if cand[a] < 0 {
						cand[a] = 0
					}
					if add(cand) {
						next = append(next, out[len(out)-1])
					}
				}
			}
		}
		frontier = next
	}
	return out
}

// freqCandidates enumerates joint frequency moves: each computer may move
// up to freqSteps indices from its point in force, prev; to keep the
// candidate count finite the moves are axis-aligned (one computer moves
// per candidate), after the all-stay vector (first) and the all-max one.
func (c *Controller) freqCandidates(alpha []bool, prev []int) [][]int {
	n := len(c.specs)
	stay := make([]int, n)
	maxv := make([]int, n)
	for j := range c.specs {
		stay[j] = clampIdx(prev[j], len(c.specs[j].FrequenciesHz))
		maxv[j] = len(c.specs[j].FrequenciesHz) - 1
	}
	out := [][]int{append([]int(nil), stay...), maxv}
	for j := 0; j < n; j++ {
		if !alpha[j] {
			continue
		}
		for d := -freqSteps; d <= freqSteps; d++ {
			if d == 0 {
				continue
			}
			idx := stay[j] + d
			if idx < 0 || idx >= len(c.specs[j].FrequenciesHz) {
				continue
			}
			cand := append([]int(nil), stay...)
			cand[j] = idx
			out = append(out, cand)
		}
	}
	return out
}

func countOn(a []bool) int {
	n := 0
	for _, v := range a {
		if v {
			n++
		}
	}
	return n
}

func boolKey(a []bool) string {
	buf := make([]byte, len(a))
	for i, v := range a {
		if v {
			buf[i] = 1
		}
	}
	return string(buf)
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
