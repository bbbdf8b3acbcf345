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
	// maxNearTiesL2 caps the near ties a decision prices: C(15, 5), the
	// whole 6-module simplex, so up to 6 modules none is ever dropped, and
	// above 6 a dropped one is within rounding of the optimum.
	maxNearTiesL2 = 3003
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
}

// L2Decision is the cluster controller's output.
type L2Decision struct {
	// Gamma[i] is the fraction of the global arrivals dispatched to
	// module i (Σ = 1, quantized).
	Gamma []float64
	// Explored counts priced J̃ terms plus near-tie candidate-samples.
	Explored int
}

// L2 is the cluster-level controller. Construct with NewL2.
//
// Its tables are sized at NewL2 and its near-tie pool grows to a
// high-water mark, so a warm Decide allocates nothing (pinned by
// TestL2DecideSteadyStateAllocs). The returned decision's Gamma belongs to
// the controller and stays valid until its next Decide. Not safe for
// concurrent use.
type L2 struct {
	cfg     L2Config
	jtildes []JTilde

	prevGamma []float64
	decGamma  []float64 // the returned decision's γ

	// The decision in flight, module i's entry for u quanta at
	// e = i·(unitsL2+1) + u: J̃ terms at terms[e·nSamples+s], the
	// reallocation term delta[e] and c_i(u) at cost[e].
	avail       []bool
	samplesBuf  [3]float64
	nSamples    int
	terms       []float64
	delta, cost []float64
	suf         []float64
	lastAvail   int
	quanta      []uint8   // the walk's current allocation
	tieQuanta   []uint8   // the near ties, len(jtildes) quanta each
	ties        [][]uint8 // views into tieQuanta, in simplex order

	explored    int
	decisions   int
	computeTime time.Duration
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
	mask := make([]bool, p)
	weights := make([]float64, p)
	for i := range mask {
		mask[i] = true
		weights[i] = 1
	}
	prev, err := SnapSimplex(weights, mask, QuantumL2)
	if err != nil {
		return nil, err
	}
	n := p * (unitsL2 + 1)
	return &L2{cfg: cfg, jtildes: jtildes, prevGamma: prev, decGamma: make([]float64, p),
		avail: make([]bool, p), terms: make([]float64, 3*n), delta: make([]float64, n),
		cost: make([]float64, n), suf: make([]float64, n+unitsL2+1), quanta: make([]uint8, p)}, nil
}

// SetRecorder attaches a decision flight recorder (nil detaches). Each
// Decide writes one summary record (Module == -1: explored count,
// incumbent cost, decide latency) followed by one detail record per
// module carrying its chosen γ share. Recording is observe-only:
// decisions are identical with it on or off.
func (l *L2) SetRecorder(r *flight.Recorder) { l.rec = r }

// SetMaxExplored caps the states each subsequent Decide may evaluate —
// priced terms plus near-tie candidate-samples — exactly as
// L1.SetMaxExplored does; n <= 0 removes the cap.
func (l *L2) SetMaxExplored(n int) { l.maxExplored = n }

// Decide solves the L2 optimization (Eq. 15) exactly: the quantized {γ_i}
// minimizing the sample mean of Σ_i J̃_i plus Σ_i δ·|γ_i − γ_prev,i|. The
// cost separates by module, so each term T_i(u, s) = J̃_i(q_i, u·q·λ_s, ĉ_i)
// is priced once, a min-plus table over modules gives the optimum V*, and
// only the near ties of V* are priced whole, through llc.OneStep in
// enumeration order and summation: the winner and its cost are those of
// pricing the whole simplex, bit for bit, and the work is linear in
// modules. The returned Gamma is valid until the next Decide.
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
	if countOn(obs.Available) == 0 {
		return L2Decision{}, fmt.Errorf("controller: no available modules")
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	start := time.Now() //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only

	copy(l.avail, obs.Available)
	l.nSamples = len(bandSamples(&l.samplesBuf, obs.LambdaHat, obs.Delta, l.cfg.UncertaintySamples))
	sc := llc.Scan{MaxExplored: l.maxExplored}
	margin, err := l.priceTerms(&sc, obs)
	if err != nil {
		return L2Decision{}, searchErr("L2", err)
	}
	l.solve()
	l.tieQuanta, l.ties = l.tieQuanta[:0], l.ties[:0]
	l.collect(0, unitsL2, 0, l.suf[unitsL2]+margin)
	bi, bestCost, err := llc.OneStep(&sc, l2Pricer{l}, l.ties, l.nSamples, math.Inf(1))
	if err != nil {
		return L2Decision{}, searchErr("L2", err)
	}
	if bi < 0 {
		return L2Decision{}, fmt.Errorf("controller: L2 found no candidate allocation")
	}
	for i, u := range l.ties[bi] {
		l.decGamma[i] = float64(u) * QuantumL2
	}
	copy(l.prevGamma, l.decGamma)
	explored := sc.Explored
	elapsed := time.Since(start) //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
	l.explored += explored
	l.decisions++
	l.computeTime += elapsed
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

// priceTerms fills the term, reallocation and cost tables, counting each
// J̃ prediction as one explored state, and returns the margin the walk
// allows above the optimum V*. γ_i·λ_s is formed as a full enumeration
// forms it, so each term has the bits it would compute.
//
// The margin keeps the first minimizer x* of the enumeration's priced cost
// F. Let u = 2⁻⁵³, γ_K = K·u/(1−K·u) and B = Σ_i max_u (Σ_s |T_i(u, s)|/S
// + |δ_i(u)|), from magnitudes, so it holds for costs of either sign. Every
// cost computed for an allocation x — F(x) (S·A additions, a division, p
// reallocation additions), or a table or walk sum of the c_i (S + 1
// roundings in each, p + 1 additions across them) — sums x's terms in at
// most K = S·p + p + 2 roundings, so lies within γ_K·B of x's exact cost
// R(x). With x° a minimizer of R: R(x*) ≤ F(x*) + γ_K·B ≤ F(x°) + γ_K·B ≤
// R(x°) + 2γ_K·B; V* is a float sum of some allocation, so R(x°) ≤ V* +
// γ_K·B; and a walk test on a prefix of x* is at most a float sum of x*'s
// terms (suf is at most x*'s own completion, and float addition is
// monotone), so at most R(x*) + γ_K·B ≤ V* + 4γ_K·B. 8·K·u·B covers that,
// B's rounding and V* + margin's.
func (l *L2) priceTerms(sc *llc.Scan, obs L2Observation) (float64, error) {
	n, bound := l.nSamples, 0.0
	for i, jt := range l.jtildes {
		lams := l.samplesBuf[:n]
		if !l.avail[i] {
			lams = nil // held at 0 quanta, it costs only its reallocation
		}
		widest := 0.0
		for u := 0; u <= unitsL2; u++ {
			e := i*(unitsL2+1) + u
			g := float64(u) * QuantumL2
			l.delta[e] = DeltaWeight * math.Abs(g-l.prevGamma[i])
			sum, abs := 0.0, 0.0
			for s, lam := range lams {
				// Zero-share modules still cost their learned idle floor
				// (the L1 keeps MinOn computers powered), so concentration
				// is not falsely free.
				c, err := jt.Predict(obs.QAvg[i], g*lam, obs.CHat[i])
				if err != nil {
					return 0, err
				}
				sc.Explored++
				if sc.MaxExplored > 0 && sc.Explored > sc.MaxExplored {
					return 0, llc.ErrBudget
				}
				l.terms[e*n+s] = c
				sum, abs = sum+c, abs+math.Abs(c)
			}
			l.cost[e] = sum/float64(n) + l.delta[e]
			widest = max(widest, abs/float64(n)+l.delta[e])
		}
		bound += widest
	}
	return float64(n*len(l.jtildes)+len(l.jtildes)+2) * bound * 0x1p-50, nil
}

// solve fills suf[i][r], the least Σ c_j over allocations of r quanta to
// modules i.. (unavailable ones at 0; +Inf where none exists), so
// V* = suf[0][10].
func (l *L2) solve() {
	p, w := len(l.jtildes), unitsL2+1
	for r := range w {
		l.suf[p*w+r] = math.Inf(1)
	}
	l.suf[p*w], l.lastAvail = 0, -1
	for i := p - 1; i >= 0; i-- {
		if l.avail[i] && l.lastAvail < 0 {
			l.lastAvail = i
		}
		for r := range w {
			best := math.Inf(1)
			for u := 0; u <= r && (u == 0 || l.avail[i]); u++ {
				if v := l.cost[i*w+u] + l.suf[(i+1)*w+r-u]; v < best {
					best = v
				}
			}
			l.suf[i*w+r] = best
		}
	}
}

// collect walks the simplex from module i, r quanta left at prefix cost
// pre, in EnumerateSimplex order (quanta ascending module by module, the
// last available module taking the rest), and appends every allocation
// whose prefixes all stay within limit to the near ties, up to
// maxNearTiesL2.
func (l *L2) collect(i, r int, pre, limit float64) {
	if i == len(l.jtildes) {
		k := len(l.tieQuanta)
		l.tieQuanta = append(l.tieQuanta, l.quanta...)
		l.ties = append(l.ties, l.tieQuanta[k:])
		return
	}
	lo, hi := 0, r
	if !l.avail[i] {
		hi = 0
	} else if i == l.lastAvail {
		lo = r
	}
	for u := lo; u <= hi && len(l.ties) < maxNearTiesL2; u++ {
		if c := pre + l.cost[i*(unitsL2+1)+u]; c+l.suf[(i+1)*(unitsL2+1)+r-u] <= limit {
			l.quanta[i] = uint8(u)
			l.collect(i+1, r-u, c, limit)
		}
	}
}

// l2Pricer prices near ties for llc.OneStep from the decision's term
// table, in the order a full enumeration sums them: per sample, module by
// module, then the reallocation terms on the mean.
type l2Pricer struct{ l *L2 }

func (p l2Pricer) Price(quanta []uint8, si int, sum float64) (float64, error) {
	for i, u := range quanta {
		if p.l.avail[i] {
			sum += p.l.terms[(i*(unitsL2+1)+int(u))*p.l.nSamples+si]
		}
	}
	return sum, nil
}

// Finish adds the ‖Δu‖_S reallocation cost (Eq. 3).
func (p l2Pricer) Finish(quanta []uint8, mean float64) float64 {
	for i, u := range quanta {
		mean += p.l.delta[i*(unitsL2+1)+int(u)]
	}
	return mean
}

// Overhead reports accumulated overhead counters.
func (l *L2) Overhead() (explored, decisions int, compute time.Duration) {
	return l.explored, l.decisions, l.computeTime
}
