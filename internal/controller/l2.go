package controller

import (
	"fmt"
	"math"
	"time"

	"hierctl/internal/approx"
	"hierctl/internal/llc"
	// Aliased: Decide's observation parameter is conventionally named obs.
	flight "hierctl/internal/obs"
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
}

// L2 is the cluster-level controller. Construct with NewL2.
//
// Its tables are sized at NewL2, so a warm Decide allocates nothing
// (pinned by TestL2DecideSteadyStateAllocs). The returned decision's Gamma
// belongs to the controller and stays valid until its next Decide. Not
// safe for concurrent use.
type L2 struct {
	cfg     L2Config
	jtildes []JTilde

	decGamma []float64 // the returned decision's γ

	// The decision in flight: module i's term c_i(u) for u quanta at
	// cost[i·(unitsL2+1) + u], and the suffix table suf.
	avail      []bool
	samplesBuf [3]float64
	cost       []float64
	suf        []float64

	meter
	// maxExplored is the decision budget (see SetMaxExplored); 0 = none.
	maxExplored int

	// Flight recorder (nil = disabled).
	rec *flight.Recorder
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
	p := len(jtildes)
	n := p * (unitsL2 + 1)
	return &L2{cfg: cfg, jtildes: jtildes, decGamma: make([]float64, p),
		avail: make([]bool, p), cost: make([]float64, n), suf: make([]float64, n+unitsL2+1)}, nil
}

// SetRecorder attaches a decision flight recorder (nil detaches). Each
// Decide writes one summary record (Module == -1: explored count,
// incumbent cost, decide latency) followed by one detail record per
// module carrying its chosen γ share. Recording is observe-only:
// decisions are identical with it on or off.
func (l *L2) SetRecorder(r *flight.Recorder) { l.rec = r }

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
// sample. The returned Gamma is valid until the next Decide.
//
//hpm:hotpath
func (l *L2) Decide(obs L2Observation) (L2Decision, error) {
	p := len(l.jtildes)
	if len(obs.QAvg) != p || len(obs.CHat) != p {
		return L2Decision{}, fmt.Errorf("controller: observation sizes %d/%d, modules %d", len(obs.QAvg), len(obs.CHat), p)
	}
	if obs.Available == nil {
		obs.Available = make([]bool, p) //hpm:alloc nil-Available normalization; steady-state callers pass their scratch slice
		for i := range obs.Available {
			obs.Available[i] = true
		}
	}
	if len(obs.Available) != p {
		return L2Decision{}, fmt.Errorf("controller: observation has %d availability flags, modules %d", len(obs.Available), p)
	}
	if obs.Split == nil {
		// Into the decision's buffer: every term is priced before the
		// backtrack overwrites it.
		obs.Split = EqualSplit(l.decGamma)
	}
	if len(obs.Split) != p {
		return L2Decision{}, fmt.Errorf("controller: observation split has %d modules, want %d", len(obs.Split), p)
	}
	if countOn(obs.Available) == 0 {
		return L2Decision{}, fmt.Errorf("controller: no available modules")
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	start := time.Now() //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only

	copy(l.avail, obs.Available)
	explored, err := l.priceTerms(obs)
	if err != nil {
		return L2Decision{}, searchErr("L2", err)
	}
	// suf[i·w + r] is the least fold of c_i.. over allocations of r quanta
	// to modules i.. (+Inf where none exists), over a base row finite at
	// r = 0 only.
	w := unitsL2 + 1
	for r := range w {
		l.suf[p*w+r] = math.Inf(1)
	}
	l.suf[p*w] = 0
	for i := p - 1; i >= 0; i-- {
		minPlus(l.suf[i*w:(i+1)*w], l.cost[i*w:], l.suf[(i+1)*w:], 0, unitsL2, i == p-1)
	}
	bestCost := l.suf[unitsL2]
	if !(bestCost < math.Inf(1)) {
		return L2Decision{}, fmt.Errorf("controller: L2 found no candidate allocation")
	}
	for i, r := 0, unitsL2; i < p; i++ {
		u := firstOptimum(l.cost[i*w:], l.suf[(i+1)*w:], r, l.suf[i*w+r])
		l.decGamma[i] = float64(u) * QuantumL2
		r -= u
	}
	elapsed := time.Since(start) //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
	l.count(explored, elapsed)
	if l.rec.Enabled() {
		l.rec.Record(flight.Record{
			Level:    flight.LevelL2,
			Module:   -1,
			Comp:     -1,
			FreqIdx:  -1,
			Explored: int32(explored),
			DecideNs: elapsed.Nanoseconds(),
			Cost:     bestCost,
		})
		for i, g := range l.decGamma {
			l.rec.Record(flight.Record{
				Level:   flight.LevelL2,
				Module:  int16(i),
				Comp:    -1,
				FreqIdx: -1,
				Gamma:   g,
			})
		}
	}
	return L2Decision{Gamma: l.decGamma, Explored: explored}, nil
}

// priceTerms fills the term table, counting each J̃ prediction as one
// explored state against the budget, and returns the count. An unavailable
// module is held at 0 quanta: that term is its reallocation cost alone,
// and every other is +Inf, priced by no prediction.
func (l *L2) priceTerms(obs L2Observation) (int, error) {
	samples := bandSamples(&l.samplesBuf, obs.LambdaHat, obs.Delta, l.cfg.UncertaintySamples)
	n, explored := float64(len(samples)), 0
	for i, jt := range l.jtildes {
		lams := samples
		if !l.avail[i] {
			lams = nil
		}
		for u := 0; u <= unitsL2; u++ {
			if !l.avail[i] && u > 0 {
				l.cost[i*(unitsL2+1)+u] = math.Inf(1)
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
			l.cost[i*(unitsL2+1)+u] = sum/n + DeltaWeight*math.Abs(g-obs.Split[i])
		}
	}
	return explored, nil
}
