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
//
// Invariant: the candidate search shards by α-candidate with a private
// branch-and-bound incumbent per shard, so decisions, costs, and the
// explored-state counters are all independent of Config.Parallelism —
// EXT3's overhead comparison stays apples-to-apples at any worker count
// (pinned by TestPruningPreservesDecisionAndParallelInvariance).
package central

import (
	"fmt"
	"math"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/llc"
	"hierctl/internal/par"
	"hierctl/internal/queue"
)

// Config parameterizes the flat controller.
type Config struct {
	// PeriodSeconds is the decision period (match T_L1 for fairness).
	PeriodSeconds float64
	// SubPeriodSeconds is the granularity of the internal fluid
	// prediction (match T_L0).
	SubPeriodSeconds float64
	// TargetResponse and TargetMargin mirror the hierarchy's set-point.
	TargetResponse float64
	TargetMargin   float64
	// SlackWeight, PowerWeight and SwitchWeight mirror Q, R and W.
	SlackWeight, PowerWeight, SwitchWeight float64
	// Quantum quantizes the joint load fractions.
	Quantum float64
	// NeighbourDepth bounds the γ neighbourhood per candidate α/u.
	NeighbourDepth int
	// FreqSteps bounds how many frequency-index moves (±1 per computer)
	// are explored per period.
	FreqSteps int
	// MinOn keeps at least this many computers operational.
	MinOn int
	// Parallelism bounds the workers that shard the candidate search
	// (one α candidate with its γ and u passes per task). 0 uses one
	// worker per CPU; 1 reproduces the sequential search. The selected
	// decision and the explored-state count are identical at any
	// setting, so the EXT3 comparison keeps measuring control
	// decomposition, not thread count.
	Parallelism int
	// NonNegativeCosts declares the per-sample configuration costs
	// non-negative — true for the fluid-model pricing below, a sum of
	// slack, power and switch terms — enabling the same branch-and-bound
	// pruning the hierarchy's searches use: a candidate whose partial
	// sample average already meets its pass's incumbent is abandoned
	// early. Incumbents are kept per α shard, so the decision and the
	// explored-state count stay identical at any Parallelism and the
	// EXT3 baseline remains apples-to-apples with the pruned hierarchy.
	NonNegativeCosts bool
}

// DefaultConfig mirrors the hierarchy's settings.
func DefaultConfig() Config {
	return Config{
		PeriodSeconds:    120,
		SubPeriodSeconds: 30,
		TargetResponse:   4,
		TargetMargin:     0.8,
		SlackWeight:      100,
		PowerWeight:      1,
		SwitchWeight:     8,
		Quantum:          0.05,
		NeighbourDepth:   2,
		FreqSteps:        1,
		MinOn:            1,
		NonNegativeCosts: true,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.PeriodSeconds <= 0 || c.SubPeriodSeconds <= 0 || c.PeriodSeconds < c.SubPeriodSeconds {
		return fmt.Errorf("central: invalid periods (%v, %v)", c.PeriodSeconds, c.SubPeriodSeconds)
	}
	if c.TargetResponse <= 0 {
		return fmt.Errorf("central: target response %v <= 0", c.TargetResponse)
	}
	if c.TargetMargin <= 0 || c.TargetMargin > 1 {
		return fmt.Errorf("central: target margin %v outside (0, 1]", c.TargetMargin)
	}
	if c.SlackWeight < 0 || c.PowerWeight < 0 || c.SwitchWeight < 0 {
		return fmt.Errorf("central: negative weights")
	}
	units := math.Round(1 / c.Quantum)
	if c.Quantum <= 0 || math.Abs(units*c.Quantum-1) > 1e-9 {
		return fmt.Errorf("central: quantum %v must divide 1", c.Quantum)
	}
	if c.NeighbourDepth < 1 || c.FreqSteps < 0 {
		return fmt.Errorf("central: invalid search bounds")
	}
	if c.MinOn < 1 {
		return fmt.Errorf("central: min-on %d < 1", c.MinOn)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("central: parallelism %d < 0", c.Parallelism)
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
type Controller struct {
	cfg   Config
	specs []cluster.ComputerSpec

	prevAlpha []bool
	prevGamma []float64
	prevFreq  []int

	explored    int
	decisions   int
	computeTime time.Duration
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
	if cfg.MinOn > len(specs) {
		return nil, fmt.Errorf("central: min-on %d exceeds cluster size %d", cfg.MinOn, len(specs))
	}
	n := len(specs)
	c := &Controller{cfg: cfg, specs: specs}
	c.prevAlpha = make([]bool, n)
	c.prevFreq = make([]int, n)
	caps := make([]float64, n)
	mask := make([]bool, n)
	for j := range specs {
		c.prevAlpha[j] = true
		c.prevFreq[j] = len(specs[j].FrequenciesHz) - 1
		caps[j] = specs[j].SpeedFactor
		mask[j] = true
	}
	var err error
	c.prevGamma, err = controller.SnapSimplex(caps, mask, cfg.Quantum)
	if err != nil {
		return nil, err
	}
	return c, nil
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
}

// Decide jointly picks (α, γ, u) for the next period by bounded search
// over the flat configuration space: candidate α vectors (previous plus
// single toggles plus all-on), for each a γ neighbourhood on the quantized
// simplex, and per-computer frequency moves within FreqSteps of the
// previous operating point. The full cartesian product α×γ×u is
// intractable even at n = 8 (this is exactly the §3 dimensionality
// argument), so the search uses coordinate descent per α candidate: best γ
// at held frequencies, then best frequency vector at the chosen γ. Even
// with that concession the explored-state count grows super-linearly with
// the cluster size, which is what the scalability experiment measures.
// The cost of one candidate is the fluid-model cost accumulated over the
// period at SubPeriod granularity, with the same slack/power/switch
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
	if obs.CHat <= 0 {
		return Decision{}, fmt.Errorf("central: non-positive c-hat")
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	samples := []float64{obs.LambdaHat}
	if obs.Delta > 0 {
		samples = []float64{math.Max(0, obs.LambdaHat-obs.Delta), obs.LambdaHat, obs.LambdaHat + obs.Delta}
	}

	// The search is sharded by α candidate: each task runs that
	// candidate's γ and u passes against the previous (read-only) state
	// and records its local optimum in an indexed slot. The sequential
	// reduction below then applies the same first-strict-improvement rule
	// the single-threaded loop used, so the winning configuration and the
	// explored-state count are identical at any worker count.
	cands := c.alphaCandidates(obs.Available)
	type shard struct {
		cost     float64
		dec      Decision
		explored int
		elapsed  time.Duration
	}
	shards := make([]shard, len(cands))
	_ = par.For(par.Workers(c.cfg.Parallelism), len(cands), func(ci int) error {
		shardStart := time.Now() //hpm:wallclock §4.3 controller-overhead metric; summed per-shard compute, never a decision input
		alpha := cands[ci]
		local := shard{cost: math.Inf(1)}
		nSamples := float64(len(samples))
		// price returns the candidate's expected cost and whether it
		// completed: under NonNegativeCosts a candidate whose partial
		// sample average already meets the pass's incumbent is abandoned
		// (it could at best tie, and ties never displace the incumbent),
		// mirroring the hierarchy's branch-and-bound. The incumbent is
		// shard-local, so explored counts stay parallelism-independent.
		price := func(gamma []float64, freq []int, incumbent float64) (float64, bool) {
			sum := 0.0
			for si, lam := range samples {
				sum += c.evaluate(alpha, gamma, freq, obs, lam)
				local.explored++
				if c.cfg.NonNegativeCosts && llc.PrunePartialMean(sum, len(samples), si, incumbent) {
					return 0, false
				}
			}
			return sum / nSamples, true
		}
		stay := make([]int, n)
		for j := range c.specs {
			stay[j] = clampIdx(c.prevFreq[j], len(c.specs[j].FrequenciesHz))
		}
		// Pass 1: best γ at held frequencies.
		gammaCost := math.Inf(1)
		var bestGamma []float64
		for _, gamma := range c.gammaCandidates(alpha) {
			if cost, ok := price(gamma, stay, gammaCost); ok && cost < gammaCost {
				gammaCost = cost
				bestGamma = gamma
			}
		}
		if bestGamma == nil {
			local.elapsed = time.Since(shardStart) //hpm:wallclock §4.3 controller-overhead metric; observe-only
			shards[ci] = local
			return nil
		}
		// Pass 2: best frequency vector at the chosen γ.
		for _, freq := range c.freqCandidates(alpha) {
			if cost, ok := price(bestGamma, freq, local.cost); ok && cost < local.cost {
				local.cost = cost
				local.dec = Decision{Alpha: alpha, Gamma: bestGamma, FreqIdx: freq}
			}
		}
		local.elapsed = time.Since(shardStart) //hpm:wallclock §4.3 controller-overhead metric; observe-only
		shards[ci] = local
		return nil
	})
	best := Decision{}
	bestCost := math.Inf(1)
	explored := 0
	// Overhead is the summed per-shard compute, not the fan-out's
	// wall-clock span — the same accounting the hierarchy uses (its
	// L1Time sums each module's own Decide duration), so the EXT3
	// comparison stays about control decomposition at any Parallelism.
	var elapsed time.Duration
	for _, s := range shards {
		explored += s.explored
		elapsed += s.elapsed
		if s.cost < bestCost {
			bestCost = s.cost
			best = s.dec
		}
	}
	if math.IsInf(bestCost, 1) {
		return Decision{}, fmt.Errorf("central: no candidate configuration")
	}
	best.Alpha = append([]bool(nil), best.Alpha...)
	best.Gamma = append([]float64(nil), best.Gamma...)
	best.FreqIdx = append([]int(nil), best.FreqIdx...)
	best.Explored = explored
	c.prevAlpha = best.Alpha
	c.prevGamma = best.Gamma
	c.prevFreq = best.FreqIdx
	c.explored += explored
	c.decisions++
	c.computeTime += elapsed
	return best, nil
}

// evaluate prices a joint configuration: fluid-model slack + power per
// sub-period per on computer, plus switch-on transients.
func (c *Controller) evaluate(alpha []bool, gamma []float64, freq []int, obs Observation, lambda float64) float64 {
	subSteps := int(c.cfg.PeriodSeconds/c.cfg.SubPeriodSeconds + 0.5)
	target := c.cfg.TargetMargin * c.cfg.TargetResponse
	total := 0.0
	for j := range c.specs {
		if !alpha[j] {
			continue
		}
		if !c.prevAlpha[j] {
			total += c.cfg.SwitchWeight
		}
		phi := c.specs[j].Phi(freq[j])
		state := queue.State{Q: obs.QueueLens[j]}
		lamJ := gamma[j] * lambda
		for s := 0; s < subSteps; s++ {
			next, err := queue.Step(state, queue.Params{
				Lambda: lamJ,
				C:      obs.CHat / c.specs[j].SpeedFactor,
				Phi:    phi,
				T:      c.cfg.SubPeriodSeconds,
			})
			if err != nil {
				return math.Inf(1)
			}
			total += c.cfg.SlackWeight*llc.Slack(next.R, target) +
				c.cfg.PowerWeight*c.specs[j].Power.Draw(phi, true)
			state = next
		}
	}
	return total
}

// alphaCandidates mirrors the hierarchy's bounded on/off set, but over the
// whole cluster: previous vector, every single toggle, all-available-on.
func (c *Controller) alphaCandidates(avail []bool) [][]bool {
	n := len(c.specs)
	base := make([]bool, n)
	for j := range base {
		base[j] = c.prevAlpha[j] && avail[j]
	}
	for j := 0; countOn(base) < c.cfg.MinOn && j < n; j++ {
		if avail[j] && !base[j] {
			base[j] = true
		}
	}
	seen := map[string]bool{}
	var out [][]bool
	add := func(a []bool) {
		if countOn(a) < c.cfg.MinOn {
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
// cluster — the joint γ space whose size grows combinatorially with n.
func (c *Controller) gammaCandidates(alpha []bool) [][]float64 {
	caps := make([]float64, len(c.specs))
	for j, s := range c.specs {
		caps[j] = s.SpeedFactor
	}
	seed, err := controller.SnapSimplex(caps, alpha, c.cfg.Quantum)
	if err != nil {
		return nil
	}
	cands := controller.SimplexNeighbours(seed, alpha, c.cfg.Quantum, c.cfg.NeighbourDepth)
	if prev, err := controller.SnapSimplex(c.prevGamma, alpha, c.cfg.Quantum); err == nil {
		cands = append(cands, controller.SimplexNeighbours(prev, alpha, c.cfg.Quantum, 1)...)
	}
	return cands
}

// freqCandidates enumerates joint frequency moves: each computer may move
// up to FreqSteps indices from its previous point; to keep the candidate
// count finite the moves are axis-aligned (one computer moves per
// candidate) plus the all-stay and all-max vectors.
func (c *Controller) freqCandidates(alpha []bool) [][]int {
	n := len(c.specs)
	stay := make([]int, n)
	maxv := make([]int, n)
	for j := range c.specs {
		stay[j] = clampIdx(c.prevFreq[j], len(c.specs[j].FrequenciesHz))
		maxv[j] = len(c.specs[j].FrequenciesHz) - 1
	}
	out := [][]int{append([]int(nil), stay...), maxv}
	for j := 0; j < n; j++ {
		if !alpha[j] {
			continue
		}
		for d := -c.cfg.FreqSteps; d <= c.cfg.FreqSteps; d++ {
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

// Overhead reports accumulated overhead counters.
func (c *Controller) Overhead() (explored, decisions int, compute time.Duration) {
	return c.explored, c.decisions, c.computeTime
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
