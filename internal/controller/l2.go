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
	// Quantum quantizes the module fractions γ_i (paper: 0.1).
	Quantum float64
	// EnumLimit bounds full enumeration of the quantized simplex; above
	// it the controller falls back to a bounded neighbourhood of the
	// previous decision (scalable control for many modules).
	EnumLimit int
	// NeighbourDepth is the bounded-search depth used past EnumLimit.
	NeighbourDepth int
	// UncertaintySamples averages the cost over {λ̂−δ, λ̂, λ̂+δ} when
	// true, mirroring the L1 chattering mitigation.
	UncertaintySamples bool
	// NonNegativeCosts declares the per-sample candidate costs
	// non-negative — true for regression trees fitted to the module
	// costs, which are sums of slack and power terms — enabling
	// llc.OneStep's partial-mean pruning (the reallocation term only adds
	// more): the selected γ is bit-identical and only Explored shrinks.
	// Disable for JTilde models that can return negative costs.
	NonNegativeCosts bool
}

// DeltaWeight is the S weight of Eq. 3 applied to ‖γ − γ_prev‖₁: a small
// reallocation cost that stabilizes the distribution and breaks ties
// between equally priced allocations toward the incumbent (identical
// modules otherwise tie exactly and the enumeration order would starve
// some of them).
const DeltaWeight float64 = 0.05

// DefaultL2Config returns the paper's §5.2 settings.
func DefaultL2Config() L2Config {
	return L2Config{
		PeriodSeconds:      120,
		Quantum:            0.1,
		EnumLimit:          5000,
		NeighbourDepth:     3,
		UncertaintySamples: true,
		NonNegativeCosts:   true,
	}
}

// Validate reports whether the configuration is usable.
func (c L2Config) Validate() error {
	if c.PeriodSeconds <= 0 {
		return fmt.Errorf("controller: L2 period %v <= 0", c.PeriodSeconds)
	}
	units := math.Round(1 / c.Quantum)
	if c.Quantum <= 0 || c.Quantum > 1 || math.Abs(units*c.Quantum-1) > 1e-9 {
		return fmt.Errorf("controller: L2 quantum %v must evenly divide 1", c.Quantum)
	}
	if c.EnumLimit < 1 {
		return fmt.Errorf("controller: L2 enum limit %d < 1", c.EnumLimit)
	}
	if c.NeighbourDepth < 1 {
		return fmt.Errorf("controller: L2 neighbour depth %d < 1", c.NeighbourDepth)
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
	// Explored counts candidate states evaluated.
	Explored int
}

// L2 is the cluster-level controller. Construct with NewL2.
//
// The full-enumeration candidate set depends only on the availability
// mask (module count and quantum are fixed), so it comes from a
// CandidateTable shared by every L2 of the shape; with the table warm a
// Decide on the enumeration path allocates nothing (pinned by
// TestL2DecideSteadyStateAllocs). The returned decision's Gamma belongs to
// the controller and stays valid until its next Decide. Not safe for
// concurrent use; the table is.
type L2 struct {
	cfg     L2Config
	jtildes []JTilde

	prevGamma []float64
	decGamma  []float64 // the returned decision's γ

	// table holds EnumerateSimplex per availability mask (modules ≤ 64;
	// larger clusters re-enumerate each period). Its vectors are never
	// mutated, so the incumbent may reference them directly.
	table      *CandidateTable
	pr         l2Pricer
	samplesBuf [3]float64

	explored    int
	decisions   int
	computeTime time.Duration
	// maxExplored is the decision budget (see SetMaxExplored); 0 = none.
	maxExplored int

	// Flight recorder (nil = disabled).
	rec *flight.Recorder
}

// NewL2 builds an L2 controller over per-module cost approximations.
// table holds the simplex enumerations of the shape, shared with every L2
// built over it (see L2TableKey; a table of another shape is refused); nil
// gives the controller a private one.
func NewL2(cfg L2Config, jtildes []JTilde, table *CandidateTable) (*L2, error) {
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
	prev, err := SnapSimplex(weights, mask, cfg.Quantum)
	if err != nil {
		return nil, err
	}
	table, err = tableFor(table, L2TableKey(cfg, p))
	if err != nil {
		return nil, err
	}
	l := &L2{cfg: cfg, jtildes: jtildes, prevGamma: prev, decGamma: make([]float64, p), table: table}
	l.pr = l2Pricer{l: l, obs: L2Observation{QAvg: make([]float64, p), CHat: make([]float64, p), Available: make([]bool, p)}}
	return l, nil
}

// Modules returns the number of modules the controller manages.
func (l *L2) Modules() int { return len(l.jtildes) }

// Table returns the candidate table the controller reads.
func (l *L2) Table() *CandidateTable { return l.table }

// SetRecorder attaches a decision flight recorder (nil detaches). Each
// Decide writes one summary record (Module == -1: explored count,
// incumbent cost, decide latency) followed by one detail record per
// module carrying its chosen γ share. Recording is observe-only:
// decisions are identical with it on or off.
func (l *L2) SetRecorder(r *flight.Recorder) { l.rec = r }

// SetMaxExplored caps the candidate-state evaluations each subsequent
// Decide may perform, exactly as L1.SetMaxExplored does; n <= 0 removes
// the cap.
func (l *L2) SetMaxExplored(n int) { l.maxExplored = n }

// Decide solves the L2 optimization (Eq. 15): choose {γ_i} minimizing
// Σ_i J̃_i. The quantized simplex is enumerated exhaustively while small
// enough, otherwise a bounded neighbourhood of the previous decision is
// searched.
//
// The returned Gamma belongs to the controller and stays valid until its
// next Decide.
//
//hpm:hotpath
func (l *L2) Decide(obs L2Observation) (L2Decision, error) {
	p := l.Modules()
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
	avail := countTrue(obs.Available)
	if avail == 0 {
		return L2Decision{}, fmt.Errorf("controller: no available modules")
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	start := time.Now() //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only

	var candidates [][]float64
	switch {
	case CountSimplex(avail, l.cfg.Quantum) > l.cfg.EnumLimit:
		seed, err := SnapSimplex(l.prevGamma, obs.Available, l.cfg.Quantum)
		if err != nil {
			return L2Decision{}, err
		}
		candidates = SimplexNeighbours(seed, obs.Available, l.cfg.Quantum, l.cfg.NeighbourDepth)
	case p > 64:
		candidates = EnumerateSimplex(p, obs.Available, l.cfg.Quantum)
	default:
		candidates = l.enumeration(obs.Available)
	}

	samples := bandSamples(&l.samplesBuf, obs.LambdaHat, obs.Delta, l.cfg.UncertaintySamples)
	sc := llc.Scan{Prune: l.cfg.NonNegativeCosts, MaxExplored: l.maxExplored}
	copy(l.pr.obs.QAvg, obs.QAvg)
	copy(l.pr.obs.CHat, obs.CHat)
	copy(l.pr.obs.Available, obs.Available)
	bi, bestCost, err := llc.OneStep(&sc, &l.pr, candidates, len(samples), math.Inf(1))
	if err != nil {
		return L2Decision{}, searchErr("L2", err)
	}
	if bi < 0 {
		return L2Decision{}, fmt.Errorf("controller: L2 found no candidate allocation")
	}
	best := candidates[bi]
	explored := sc.Explored
	elapsed := time.Since(start) //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
	copy(l.prevGamma, best)
	copy(l.decGamma, best)
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
		for i, g := range best {
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

// enumeration returns EnumerateSimplex over the availability mask from the
// shape's table: a pure function of the mask, so steady-state periods skip
// the combinatorial rebuild.
func (l *L2) enumeration(avail []bool) [][]float64 {
	mask := packBools(avail)
	set := l.table.lookup(mask)
	if set == nil {
		set = l.table.publish(mask, &candidateSet{cands: EnumerateSimplex(len(avail), avail, l.cfg.Quantum)})
	}
	return set.cands
}

// l2Pricer prices γ candidates for llc.OneStep against the decision in
// flight: the sampled arrival rates in L2.samplesBuf, and its own copy of
// the observation's per-module fields, so the controller keeps nothing of
// the caller's observation.
type l2Pricer struct {
	l   *L2
	obs L2Observation
}

func (p *l2Pricer) Price(gamma []float64, si int, sum float64) (float64, error) {
	lam := p.l.samplesBuf[si]
	for i := range gamma {
		if !p.obs.Available[i] {
			continue
		}
		// Zero-share modules still cost their learned idle floor (the L1
		// keeps MinOn computers powered), so concentration is not falsely
		// free.
		c, err := p.l.jtildes[i].Predict(p.obs.QAvg[i], gamma[i]*lam, p.obs.CHat[i])
		if err != nil {
			return sum, err
		}
		sum += c
	}
	return sum, nil
}

// Finish adds the ‖Δu‖_S reallocation cost (Eq. 3). It is non-negative,
// so the partial-mean bound stays valid for the full cost.
func (p *l2Pricer) Finish(gamma []float64, mean float64) float64 {
	for i := range gamma {
		mean += DeltaWeight * math.Abs(gamma[i]-p.l.prevGamma[i])
	}
	return mean
}

// Overhead reports accumulated overhead counters.
func (l *L2) Overhead() (explored, decisions int, compute time.Duration) {
	return l.explored, l.decisions, l.computeTime
}
