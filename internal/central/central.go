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
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/llc"
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
	// NonNegativeCosts declares the per-sample configuration costs
	// non-negative — true for the fluid-model pricing below, a sum of
	// slack, power and switch terms — enabling the partial-mean pruning of
	// llc.OneStep the hierarchy's searches use. Each α candidate's passes
	// start from their own +Inf incumbent.
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
	caps  []float64 // capacity weights seeding γ allocations

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
	c := &Controller{cfg: cfg, specs: specs, caps: make([]float64, n)}
	c.prevAlpha = make([]bool, n)
	c.prevFreq = make([]int, n)
	for j := range specs {
		c.prevAlpha[j] = true
		c.prevFreq[j] = len(specs[j].FrequenciesHz) - 1
		c.caps[j] = specs[j].SpeedFactor
	}
	var err error
	c.prevGamma, err = controller.SnapSimplex(c.caps, c.prevAlpha, cfg.Quantum)
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
	// With every computer down there is nothing to search: decide all-off
	// at the previous frequencies so the run keeps going, as the
	// hierarchy's L1 does for a fully failed module.
	if countOn(obs.Available) == 0 {
		dec := Decision{Alpha: make([]bool, n), Gamma: make([]float64, n), FreqIdx: c.prevFreq}
		c.prevAlpha, c.prevGamma = dec.Alpha, dec.Gamma
		c.decisions++
		return dec, nil
	}
	start := time.Now() //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
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
	for _, alpha := range c.alphaCandidates(obs.Available) {
		cost, dec, searched, err := c.searchAlpha(alpha, obs, samples)
		explored += searched
		if err != nil {
			return Decision{}, err
		}
		if cost < bestCost {
			bestCost = cost
			best = dec
		}
	}
	if math.IsInf(bestCost, 1) {
		return Decision{}, fmt.Errorf("central: no candidate configuration")
	}
	best.Explored = explored
	c.prevAlpha = best.Alpha
	c.prevGamma = best.Gamma
	c.prevFreq = best.FreqIdx
	c.explored += explored
	c.decisions++
	c.computeTime += time.Since(start) //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
	return best, nil
}

// searchAlpha runs one α candidate's two passes — the best γ at held
// frequencies, then the best frequency vector at that γ — each one
// llc.OneStep against a +Inf incumbent. It returns the candidate's cost
// (+Inf when it has no finite configuration), its configuration, and the
// states explored.
func (c *Controller) searchAlpha(alpha []bool, obs Observation, samples []float64) (float64, Decision, int, error) {
	sc := llc.Scan{Prune: c.cfg.NonNegativeCosts}
	// freqs[0] holds every computer at its previous frequency.
	freqs := c.freqCandidates(alpha)
	p := &alphaPricer{c: c, obs: obs, samples: samples, alpha: alpha, freq: freqs[0]}
	gammas := c.gammaCandidates(alpha)
	gi, _, err := llc.OneStep(&sc, p, gammas, len(samples), math.Inf(1))
	if err != nil || gi < 0 {
		return math.Inf(1), Decision{}, sc.Explored, err
	}
	p.gamma = gammas[gi]
	fi, cost, err := llc.OneStep(&sc, (*freqPass)(p), freqs, len(samples), math.Inf(1))
	if err != nil || fi < 0 {
		return math.Inf(1), Decision{}, sc.Explored, err
	}
	return cost, Decision{Alpha: alpha, Gamma: p.gamma, FreqIdx: freqs[fi]}, sc.Explored, nil
}

// alphaPricer prices one α candidate's γ candidates at the held
// frequencies; once that pass has chosen γ, freqPass prices frequency
// vectors at it.
type alphaPricer struct {
	c       *Controller
	obs     Observation
	samples []float64
	alpha   []bool
	gamma   []float64
	freq    []int
}

func (p *alphaPricer) Price(gamma []float64, si int, sum float64) (float64, error) {
	return sum + p.c.evaluate(p.alpha, gamma, p.freq, p.obs, p.samples[si]), nil
}

func (p *alphaPricer) Finish(_ []float64, mean float64) float64 { return mean }

// freqPass is an alphaPricer pricing frequency vectors at the chosen γ.
type freqPass alphaPricer

func (p *freqPass) Price(freq []int, si int, sum float64) (float64, error) {
	return sum + p.c.evaluate(p.alpha, p.gamma, freq, p.obs, p.samples[si]), nil
}

func (p *freqPass) Finish(_ []int, mean float64) float64 { return mean }

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
	seed, err := controller.SnapSimplex(c.caps, alpha, c.cfg.Quantum)
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
// candidate), after the all-stay vector (first) and the all-max one.
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
