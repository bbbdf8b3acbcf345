package controller

import (
	"fmt"
	"math"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/llc"
	"hierctl/internal/obs"
	"hierctl/internal/queue"
)

// The paper's fixed L0 parameters (§4.1, §4.3). The comparators in
// internal/central and internal/baseline run at the same cadence and
// set-point.
const (
	// PeriodL0 is the sampling time T_L0 (paper: 30 s), the control tick.
	PeriodL0 float64 = 30
	// TargetResponse is the set-point r* in seconds (paper: 4 s).
	TargetResponse float64 = 4
	// TargetMargin tightens the controller-internal set-point to
	// TargetMargin·r* (constraint back-off, standard MPC practice under
	// model mismatch). The paper's plant *is* its fluid model, so it
	// needs no margin; this library's plant is a request-level
	// simulation with bursty arrivals and routing noise, and without
	// back-off the achieved response hovers at r* and violates it half
	// the time.
	TargetMargin float64 = 0.8
	// EffectiveTarget is the tightened set-point the searches optimize
	// against.
	EffectiveTarget = TargetMargin * TargetResponse
	// SlackWeight is Q, the penalty on the response-time slack ε
	// (paper: 100).
	SlackWeight float64 = 100
	// PowerWeight is R, the weight on power ψ = a + φ² (paper: 1).
	PowerWeight float64 = 1
)

// L0Config parameterizes a per-computer L0 controller (§4.1).
type L0Config struct {
	// Horizon is the prediction horizon N_L0 (paper: 3).
	Horizon int
}

// DefaultL0Config returns the paper's §4.3 settings.
func DefaultL0Config() L0Config {
	return L0Config{Horizon: 3}
}

// Validate reports whether the configuration is usable.
func (c L0Config) Validate() error {
	if c.Horizon < 1 {
		return fmt.Errorf("controller: L0 horizon %d < 1", c.Horizon)
	}
	return nil
}

// l0Model adapts one computer's fluid queue dynamics (Eqs. 5–7) to the
// generic LLC framework. The state is the fluid queue state; the input is
// a frequency index; the environment vector is {λ, c}.
type l0Model struct {
	spec    cluster.ComputerSpec
	phis    []float64
	indices []int
	// top indexes the highest scaling factor and psiMin is the cheapest
	// power draw over the ladder: the completion bound's two halves.
	top    int
	psiMin float64
}

func (m *l0Model) Step(s queue.State, u int, env llc.Env) queue.State {
	// Effective full-speed processing time folds in the computer's speed
	// factor; invalid parameters cannot arise here because inputs and
	// envs are validated upstream.
	next, err := queue.Step(s, queue.Params{
		Lambda: env[0],
		C:      env[1] / m.spec.SpeedFactor,
		Phi:    m.phis[u],
		T:      PeriodL0,
	})
	if err != nil {
		// Defensive: an invalid model parameterization yields a saturated
		// state rather than a panic inside the search.
		return queue.State{Q: s.Q, R: TargetResponse * 1e6}
	}
	return next
}

// Cost is the §4.1 stage cost Q·ε + R·ψ. Both terms are non-negative
// (the slack ε is clamped at zero and the power draw ψ = a + φ² is
// physical), so the search runs under the llc.Options.NonNegativeCosts
// branch-and-bound contract.
func (m *l0Model) Cost(next queue.State, u int, env llc.Env) float64 {
	return stageCost(next.R, m.spec.Power.Draw(m.phis[u], true))
}

// stageCost is the §4.1 stage cost of a period ending at response time r
// under power draw psi.
func stageCost(r, psi float64) float64 {
	return SlackWeight*llc.Slack(r, EffectiveTarget) + PowerWeight*psi
}

func (m *l0Model) Feasible(queue.State) bool { return true }

func (m *l0Model) Inputs(queue.State) []int { return m.indices }

// Floors implements llc.Floorer. The fluid queue's q and R are
// non-increasing in φ and non-decreasing in the queue they start from,
// and so is every floating-point operation computing them (each is
// correctly rounded, hence monotone). So along the top-frequency path out
// of s, each level's queue is no longer than any input sequence's nominal
// queue there, and each sample's response no longer than theirs; the
// slack is non-decreasing in the response, the cheapest draw is no more
// than any input's, and the floor sums its samples in the walk's order.
func (m *l0Model) Floors(s queue.State, envs []([]llc.Env), floors []float64) {
	for i, samples := range envs {
		f := 0.0
		var nominal queue.State
		for j, env := range samples {
			next := m.Step(s, m.top, env)
			f += stageCost(next.R, m.psiMin)
			if j == len(samples)/2 {
				nominal = next
			}
		}
		floors[i] = f / float64(len(samples))
		s = nominal
	}
}

var (
	_ llc.Model[queue.State, int] = (*l0Model)(nil)
	_ llc.Floorer[queue.State]    = (*l0Model)(nil)
)

// L0 is the per-computer frequency controller. Construct with NewL0.
//
// The controller owns a reusable llc.Searcher and its environment-forecast
// buffers, so a warm Decide performs no allocation (pinned by
// TestL0DecideZeroAlloc); like every controller here it is not safe for
// concurrent use.
type L0 struct {
	cfg      L0Config
	model    *l0Model
	searcher *llc.Searcher[queue.State, int]
	// incumbents are the constant lowest- and highest-frequency input
	// sequences over the horizon, which bound every search from its
	// start (see l0Model.incumbents).
	incumbents [][]int

	// Reused forecast buffers: envs[q] holds the uncertainty samples for
	// horizon step q, a window of envStore, whose entries are llc.Env views
	// into envBacking.
	envs       []([]llc.Env)
	envStore   []llc.Env
	envBacking []float64
	envSamples int

	meter

	// Flight recorder (nil = disabled) and this computer's coordinates
	// in its records.
	rec       *obs.Recorder
	recModule int16
	recComp   int16
}

// NewL0 builds an L0 controller for the given computer.
func NewL0(cfg L0Config, spec cluster.ComputerSpec) (*L0, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newL0Model(spec)
	if err != nil {
		return nil, err
	}
	sr, err := llc.NewSearcher[queue.State, int](m, llc.Options{NonNegativeCosts: true})
	if err != nil {
		return nil, err
	}
	l := &L0{cfg: cfg, model: m, searcher: sr}
	l.envBacking = make([]float64, cfg.Horizon*maxEnvSamples*2)
	l.envStore = make([]llc.Env, cfg.Horizon*maxEnvSamples)
	for i := range l.envStore {
		l.envStore[i] = l.envBacking[2*i : 2*i+2]
	}
	l.envs = make([]([]llc.Env), cfg.Horizon)
	l.incumbents = m.incumbents(cfg.Horizon)
	return l, nil
}

// maxEnvSamples is the most uncertainty samples an L0 horizon step takes:
// the band's {λ̂−δ, λ̂, λ̂+δ}.
const maxEnvSamples = 3

// ensureEnvs points envs[q] at the given number of samples of horizon step
// q's maxEnvSamples slots in envStore, laid out once by NewL0: a banded ↔
// unbanded switch only reslices.
//
//hpm:hotpath
func (l *L0) ensureEnvs(samples int) {
	if l.envSamples == samples {
		return
	}
	for q := range l.envs {
		l.envs[q] = l.envStore[q*maxEnvSamples : q*maxEnvSamples+samples]
	}
	l.envSamples = samples
}

// NewL0Model exposes the per-computer fluid-queue model the L0 controller
// searches over — state queue.State, input a frequency index, environment
// {λ, ĉ} — with the incumbent input sequences an L0 controller of the given
// horizon hands that search, so benchmarks and custom engines can drive
// the llc search against the paper's §4.3 configuration directly. Its
// stage costs are non-negative, satisfying llc.Options.NonNegativeCosts,
// and it implements llc.Floorer.
func NewL0Model(spec cluster.ComputerSpec, horizon int) (llc.Model[queue.State, int], [][]int, error) {
	m, err := newL0Model(spec)
	if err != nil {
		return nil, nil, err
	}
	return m, m.incumbents(horizon), nil
}

func newL0Model(spec cluster.ComputerSpec) (*l0Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The ladder ascends (spec.Validate), so the top frequency is last.
	m := &l0Model{spec: spec, phis: spec.PhiLadder()}
	m.indices = make([]int, len(m.phis))
	m.top = len(m.phis) - 1
	m.psiMin = math.Inf(1)
	for i, phi := range m.phis {
		m.indices[i] = i
		m.psiMin = min(m.psiMin, spec.Power.Draw(phi, true))
	}
	return m, nil
}

// incumbents returns the input sequences holding the lowest and the
// highest frequency over the horizon — optimal when the computer idles
// and when it is overloaded, which covers most of the load range — or
// none at horizon 1, where they are the walk's own leaves.
func (m *l0Model) incumbents(horizon int) [][]int {
	if horizon <= 1 {
		return nil
	}
	lowest, highest := make([]int, horizon), make([]int, horizon)
	for q := range highest {
		highest[q] = m.top
	}
	return [][]int{lowest, highest}
}

// Config returns the controller's configuration.
func (l *L0) Config() L0Config { return l.cfg }

// SetMaxExplored caps the states each subsequent Decide's lookahead search
// may evaluate (see llc.Searcher.SetMaxExplored); n <= 0 removes the cap. A
// Decide that exhausts it fails with llc.ErrBudget and the caller applies
// safe fallback settings for the tick.
func (l *L0) SetMaxExplored(n int) { l.searcher.SetMaxExplored(n) }

// SetRecorder attaches a decision flight recorder (nil detaches) and
// names the (module, computer) coordinates stamped onto records.
// Recording is observe-only: decisions are identical with it on or off.
func (l *L0) SetRecorder(r *obs.Recorder, module, comp int) {
	l.rec, l.recModule, l.recComp = r, int16(module), int16(comp)
}

// Decide selects the frequency index for the next period. queueLen is the
// observed queue length; lambda holds the forecast arrival rates
// (requests/second) for each horizon step (length ≥ 1 — shorter than the
// horizon is padded with the last value); cHat is the estimated full-speed
// processing time. delta is the forecast uncertainty band half-width
// (requests/second), extending the paper's §4.2 uncertainty-band treatment
// down to the frequency controller: with δ > 0 each horizon step's cost
// averages the three sampled rates {λ̂−δ, λ̂, λ̂+δ}, so the processor hedges
// against arrival bursts instead of riding the queue at the set-point.
//
//hpm:hotpath
func (l *L0) Decide(queueLen float64, lambda []float64, delta, cHat float64) (freqIdx int, err error) {
	if len(lambda) == 0 {
		return 0, fmt.Errorf("controller: L0 needs at least one arrival-rate forecast")
	}
	if cHat <= 0 {
		return 0, fmt.Errorf("controller: L0 processing-time estimate %v <= 0", cHat)
	}
	start := time.Now() //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
	res, err := l.search(queueLen, lambda, delta, cHat)
	if err != nil {
		return 0, fmt.Errorf("controller: L0 search: %w", err)
	}
	elapsed := time.Since(start) //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
	l.count(res.Explored, elapsed)
	if l.rec.Enabled() {
		l.rec.Record(obs.Record{
			Level:    obs.LevelL0,
			Module:   l.recModule,
			Comp:     l.recComp,
			FreqIdx:  int16(res.Inputs[0]),
			Explored: int32(res.Explored),
			DecideNs: elapsed.Nanoseconds(),
			Cost:     res.Cost,
		})
	}
	return res.Inputs[0], nil
}

// search fills the forecast buffers for one decision and runs the bounded
// lookahead search over them. The result aliases the searcher's buffers.
//
//hpm:hotpath
func (l *L0) search(queueLen float64, lambda []float64, delta, cHat float64) (llc.Result[queue.State, int], error) {
	banded := delta > 0
	samples := 1
	if banded {
		samples = 3
	}
	l.ensureEnvs(samples)
	for q := 0; q < l.cfg.Horizon; q++ {
		lam := lambda[min(q, len(lambda)-1)]
		if lam < 0 {
			lam = 0
		}
		if banded {
			lo := lam - delta
			if lo < 0 {
				lo = 0
			}
			l.envs[q][0][0], l.envs[q][0][1] = lo, cHat
			l.envs[q][1][0], l.envs[q][1][1] = lam, cHat
			l.envs[q][2][0], l.envs[q][2][1] = lam+delta, cHat
		} else {
			l.envs[q][0][0], l.envs[q][0][1] = lam, cHat
		}
	}
	return l.searcher.Exhaustive(queue.State{Q: queueLen}, l.envs, l.incumbents...)
}
