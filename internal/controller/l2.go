package controller

import (
	"fmt"
	"math"

	"hierctl/internal/approx"
	"hierctl/internal/llc"
)

// L2Config parameterizes the cluster-level L2 controller (§5.1).
type L2Config struct {
	// PeriodSeconds is the sampling time T_L2 (paper: 2 min).
	PeriodSeconds float64
	// UncertaintySamples averages the cost over {λ̂−δ, λ̂, λ̂+δ} when
	// true, mirroring the L1 chattering mitigation.
	UncertaintySamples bool
}

// DeltaWeight is the S weight of Eq. 3 applied to ‖γ − γ_prev‖₁: a small
// reallocation cost that stabilizes the distribution and breaks ties
// between equally priced allocations toward the incumbent (identical
// modules otherwise tie exactly, and the first allocation in simplex order
// would win every period, starving the others).
const DeltaWeight float64 = 0.05

const (
	// QuantumL2 quantizes the module fractions γ_i (paper: 0.1).
	QuantumL2 float64 = 0.1
	// unitsL2 is the number of quanta the module fractions share.
	unitsL2 = 10
)

// DefaultL2Config returns the paper's §5.2 settings.
func DefaultL2Config() L2Config {
	return L2Config{
		PeriodSeconds:      120,
		UncertaintySamples: true,
	}
}

// Validate reports whether the configuration is usable.
func (c L2Config) Validate() error {
	if c.PeriodSeconds <= 0 {
		return fmt.Errorf("controller: L2 period %v <= 0", c.PeriodSeconds)
	}
	return nil
}

// JTilde approximates a module's cost J̃_i(x_L2, γ_i) (Eq. 15): the
// expected cost of module i over one L2 period given its average queue
// length, the arrival rate it would receive, and its processing-time
// estimate.
type JTilde interface {
	Predict(qAvg, lambda, c float64) (float64, error)
}

// TreeJTilde adapts a CART regression tree to the JTilde interface — the
// paper's "compact regression tree to store J̃ values" (§5.1).
type TreeJTilde struct {
	tree *approx.RegressionTree
}

// NewTreeJTilde wraps a fitted tree.
func NewTreeJTilde(tree *approx.RegressionTree) (*TreeJTilde, error) {
	if tree == nil {
		return nil, fmt.Errorf("controller: nil regression tree")
	}
	return &TreeJTilde{tree: tree}, nil
}

// Predict evaluates the tree at (qAvg, lambda, c). The probe point lives
// on the stack (the tree never retains it), so a prediction performs no
// allocation — part of the decision tick's allocation-free invariant.
func (t *TreeJTilde) Predict(qAvg, lambda, c float64) (float64, error) {
	x := [3]float64{qAvg, lambda, c}
	return t.tree.Predict(x[:])
}

var _ JTilde = (*TreeJTilde)(nil)

// L2Observation is the aggregated cluster state x_L2 and environment
// estimate ω̂_L2 = (λ̂_g, ĉ_L2).
type L2Observation struct {
	// QAvg[i] is the average queue length of module i.
	QAvg []float64
	// LambdaHat is the forecast cluster arrival rate (requests/second).
	LambdaHat float64
	// Delta is the forecast uncertainty band half-width.
	Delta float64
	// CHat[i] is module i's processing-time estimate (seconds).
	CHat []float64
	// Available marks modules that can currently serve (≥ 1 healthy
	// computer). Unavailable modules are forced to γ_i = 0.
	Available []bool
	// Split is the module split in force, from which the decision prices
	// its moves. Nil means the split before any decision, EqualSplit's.
	Split []float64
}

// L2Decision is the cluster controller's output.
type L2Decision struct {
	// Gamma[i] is the fraction of the global arrivals dispatched to
	// module i (Σ = 1, quantized).
	Gamma []float64
	// Explored counts priced J̃ terms: 11 per available module and band
	// sample.
	Explored int
	// Cost is the optimum of the Eq. 15 objective Gamma attains, the price
	// the decision was made at.
	Cost float64
}

// L2 is the cluster-level controller. Construct with NewL2.
//
// Its term and suffix tables and the decision it returns live in the
// Scratch each Decide is handed, sized there by the module count, so a
// Decide in a warm Scratch allocates nothing (pinned by
// TestL2DecideSteadyStateAllocs). Not safe for concurrent use.
type L2 struct {
	cfg     L2Config
	jtildes []JTilde

	// maxExplored is the decision budget (see SetMaxExplored); 0 = none.
	maxExplored int
}

// NewL2 builds an L2 controller over per-module cost approximations.
func NewL2(cfg L2Config, jtildes []JTilde) (*L2, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(jtildes) == 0 {
		return nil, fmt.Errorf("controller: L2 needs at least one module model")
	}
	for i, j := range jtildes {
		if j == nil {
			return nil, fmt.Errorf("controller: L2 module model %d is nil", i)
		}
	}
	return &L2{cfg: cfg, jtildes: jtildes}, nil
}

// l2Scratch is an L2 decision's working memory, a Scratch's L2 share:
// module i's term c_i(u) for u quanta at cost[i·(unitsL2+1) + u], the
// suffix table suf, the returned decision's γ, and avail, the all-true
// flags a nil Available stands for.
type l2Scratch struct {
	avail      []bool
	samplesBuf [3]float64
	cost       []float64
	suf        []float64
	decGamma   []float64
}

// fit sizes the scratch for p modules.
func (d *l2Scratch) fit(p int) {
	n := p * (unitsL2 + 1)
	d.cost = resize(d.cost, n)
	d.suf = resize(d.suf, n+unitsL2+1)
	d.decGamma = resize(d.decGamma, p)
}

// SetMaxExplored caps the J̃ terms each subsequent Decide may price,
// exactly as L1.SetMaxExplored caps probes; n <= 0 removes the cap.
func (l *L2) SetMaxExplored(n int) { l.maxExplored = n }

// Decide solves the L2 optimization (Eq. 15) exactly: the quantized {γ_i}
// minimizing Σ_i c_i(u_i), where module i's term c_i(u) is the band-sample
// mean of J̃_i(q_i, u·q·λ_s, ĉ_i) plus its reallocation cost
// δ·|u·q − γ_prev,i| from the split in force obs.Split, summed as the
// right fold c_1 + (c_2 + (… + c_p)).
// Each term is priced once, a min-plus table over modules gives the
// optimum — rounded addition is monotone, so it is exact for the fold —
// and the backtrack takes, module by module, the fewest quanta attaining
// the suffix minimum. The work is 11 terms per available module and band
// sample, in sc's L2 share. The returned Gamma aliases sc and is valid
// until the next L2 Decide on it.
//
//hpm:hotpath
func (l *L2) Decide(sc *Scratch, obs L2Observation) (L2Decision, error) {
	p := len(l.jtildes)
	if len(obs.QAvg) != p || len(obs.CHat) != p {
		return L2Decision{}, fmt.Errorf("controller: observation sizes %d/%d, modules %d", len(obs.QAvg), len(obs.CHat), p)
	}
	d := &sc.l2
	if obs.Available == nil {
		obs.Available = allOn(&d.avail, p)
	}
	if len(obs.Available) != p {
		return L2Decision{}, fmt.Errorf("controller: observation has %d availability flags, modules %d", len(obs.Available), p)
	}
	if obs.Split != nil && len(obs.Split) != p {
		return L2Decision{}, fmt.Errorf("controller: observation split has %d modules, want %d", len(obs.Split), p)
	}
	if countOn(obs.Available) == 0 {
		return L2Decision{}, fmt.Errorf("controller: no available modules")
	}
	d.fit(p)
	if obs.Split == nil {
		// Into the decision's buffer: every term is priced before the
		// backtrack overwrites it.
		obs.Split = EqualSplit(d.decGamma)
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	explored, err := l.priceTerms(d, obs)
	if err != nil {
		return L2Decision{}, searchErr("L2", err)
	}
	// suf[i·w + r] is the least fold of c_i.. over allocations of r quanta
	// to modules i.. (+Inf where none exists), over a base row finite at
	// r = 0 only.
	w := unitsL2 + 1
	for r := range w {
		d.suf[p*w+r] = math.Inf(1)
	}
	d.suf[p*w] = 0
	for i := p - 1; i >= 0; i-- {
		minPlus(d.suf[i*w:(i+1)*w], d.cost[i*w:], d.suf[(i+1)*w:], 0, unitsL2, i == p-1)
	}
	bestCost := d.suf[unitsL2]
	if !(bestCost < math.Inf(1)) {
		return L2Decision{}, fmt.Errorf("controller: L2 found no candidate allocation")
	}
	for i, r := 0, unitsL2; i < p; i++ {
		u := firstOptimum(d.cost[i*w:], d.suf[(i+1)*w:], r, d.suf[i*w+r])
		d.decGamma[i] = float64(u) * QuantumL2
		r -= u
	}
	return L2Decision{Gamma: d.decGamma, Explored: explored, Cost: bestCost}, nil
}

// priceTerms fills the term table, counting each J̃ prediction as one
// explored state against the budget, and returns the count. An unavailable
// module is held at 0 quanta: that term is its reallocation cost alone,
// and every other is +Inf, priced by no prediction.
func (l *L2) priceTerms(d *l2Scratch, obs L2Observation) (int, error) {
	samples := bandSamples(&d.samplesBuf, obs.LambdaHat, obs.Delta, l.cfg.UncertaintySamples)
	n, explored := float64(len(samples)), 0
	for i, jt := range l.jtildes {
		lams := samples
		if !obs.Available[i] {
			lams = nil
		}
		for u := 0; u <= unitsL2; u++ {
			if !obs.Available[i] && u > 0 {
				d.cost[i*(unitsL2+1)+u] = math.Inf(1)
				continue
			}
			g := float64(u) * QuantumL2
			sum := 0.0
			for _, lam := range lams {
				// Zero-share modules still cost their learned idle floor
				// (the L1 keeps MinOn computers powered), so concentration
				// is not falsely free.
				c, err := jt.Predict(obs.QAvg[i], g*lam, obs.CHat[i])
				if err != nil {
					return 0, err
				}
				if explored++; l.maxExplored > 0 && explored > l.maxExplored {
					return 0, llc.ErrBudget
				}
				sum += c
			}
			d.cost[i*(unitsL2+1)+u] = sum/n + DeltaWeight*math.Abs(g-obs.Split[i])
		}
	}
	return explored, nil
}
