// Package llc implements the paper's primary contribution as a reusable
// framework: limited-lookahead control (LLC) of switching hybrid systems —
// systems with finite input sets and hybrid discrete/continuous dynamics
// for which classical feedback maps cannot be derived (§2.3).
//
// At every control step the framework constructs the tree of future states
// reachable from the current state over a prediction horizon N, evaluates
// the cumulative cost of each trajectory against forecast environment
// inputs, and returns the first input of the best trajectory (Eq. 4). Two
// search strategies are provided, matching the paper's §3:
//
//   - Exhaustive: explore every admissible input sequence (used by the L0
//     controller, whose input set — processor frequencies — is small).
//   - Bounded (Searcher.Bounded): explore only a caller-defined
//     neighbourhood of the previous input at each tree level, for input
//     spaces that are combinatorial. The L1/L2 controllers apply the same
//     idea with their own one-step candidate loops (PrunePartialMean is
//     the bound they share with this engine).
//
// Uncertainty in environment forecasts is handled as in §4.2: each horizon
// step may carry several sampled environment vectors (e.g. λ̂−δ, λ̂, λ̂+δ)
// and the stage cost is the average over the samples, which damps
// controller chattering. The nominal sample — the one at index
// ⌊len(samples)/2⌋, i.e. the middle sample for odd counts and the upper of
// the two middle samples for even counts — drives the state recursion.
// Callers that want a different convention (e.g. the lower-middle sample)
// should order their sample sets accordingly.
//
// # Search engine
//
// Both strategies run on a shared branch-and-bound engine: an iterative
// depth-first walk over preallocated per-level buffers (no recursion, no
// per-node allocation) that keeps the best trajectory found so far as an
// incumbent. Under the Options.NonNegativeCosts contract the engine prunes
// any partial trajectory whose accumulated cost already matches or exceeds
// the incumbent — such a trajectory can only tie, and ties never displace
// the incumbent, so the returned decision is bit-identical to the
// unpruned search while Result.Explored (the paper's §4.3
// controller-overhead metric) shrinks. Options.Parallelism additionally
// fans the level-0 candidates out across worker goroutines that share the
// incumbent bound through an atomic; per-worker results are merged in
// candidate order, so the decision stays bit-identical at any worker
// count (Explored then depends on pruning timing and may vary run to run).
package llc

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Env is one sampled environment vector ω̂(q) — e.g. {arrival rate,
// processing time} for the cluster case study. The framework treats it as
// opaque and passes it to the model.
type Env []float64

// Model describes a switching hybrid system to the controller: the state
// recursion x(k+1) = f(x(k), u(k), ω(k)) (Eq. 1), the admissible input set
// U(x), the stage cost J(x, u), and the hard operating constraints
// H(x) ≤ 0.
//
// S is the state type and U the input type; both are opaque to the
// framework. Methods must be pure functions of their arguments: the search
// may evaluate them in any order, and with Options.Parallelism > 1 from
// several goroutines at once.
type Model[S, U any] interface {
	// Step predicts the successor state from s under input u and
	// environment sample env.
	Step(s S, u U, env Env) S
	// Cost returns the stage cost of the transition into next (from
	// applying u in the predecessor), including any soft-constraint
	// slack penalties (§4.1).
	Cost(next S, u U, env Env) float64
	// Feasible reports whether s satisfies the hard constraints
	// H(s) ≤ 0. Infeasible states are heavily penalized, which keeps
	// trajectories inside the admissible region whenever one exists.
	Feasible(s S) bool
	// Inputs returns the admissible control set U(s) in state s. It must
	// be non-empty for every state the search can reach.
	Inputs(s S) []U
}

// Options tunes a search. The zero value selects sensible defaults and
// reproduces the naive engine: no pruning, sequential exploration.
//
// One deliberate difference from the historical recursive engine at any
// setting: a subtree none of whose completions has a finite, comparable
// cost (every trajectory +Inf or NaN) no longer aborts the whole search —
// the engine keeps the best trajectory from the remaining candidates and
// errors only when no trajectory anywhere has finite cost. The old
// behavior turned one degenerate branch into a controller-wide failure
// even when other branches held perfectly good decisions.
type Options struct {
	// InfeasiblePenalty is added to the stage cost of states failing
	// Model.Feasible. Default 1e12; it must dwarf any legitimate cost so
	// feasible trajectories always win when they exist, while the search
	// still returns a least-bad action under unavoidable infeasibility.
	InfeasiblePenalty float64

	// NonNegativeCosts declares that Model.Cost never returns a negative
	// value (the infeasible penalty is always positive, so it never
	// breaks the contract). Under this contract the accumulated cost of
	// a partial trajectory is a lower bound on every completion, and the
	// engine branch-and-bound prunes partial trajectories that already
	// meet the incumbent best: the selected trajectory, its cost and its
	// feasibility are bit-identical to the unpruned search — a pruned
	// trajectory could at best tie, and ties never displace the
	// incumbent under the first-best-in-candidate-order rule — but
	// Result.Explored shrinks. Setting this with a model that can return
	// negative stage costs voids the equivalence guarantee.
	//
	// Error surfacing is best-effort under pruning: a subtree that
	// cannot improve the incumbent is skipped without calling
	// Model.Inputs (or the neighbourhood function) on its states, so an
	// ErrNoInputs that the naive search would have hit deep inside such
	// a subtree may not surface — and with Parallelism > 1, whether it
	// surfaces can depend on when other workers publish the shared
	// bound. The bit-identical guarantee covers the returned decision;
	// models should not rely on the search to probe states that cannot
	// win.
	NonNegativeCosts bool

	// Parallelism bounds the workers that fan out the level-0 candidate
	// subtrees; values <= 1 run the classic sequential walk. Workers
	// share the incumbent cost through an atomic bound (pruning requires
	// NonNegativeCosts) and merge per-worker bests in candidate order,
	// so the decision is bit-identical at any setting. Explored is
	// deterministic at <= 1; with more workers it depends on how early
	// each worker publishes its incumbent and may vary run to run.
	// Unlike the application-level Parallelism knobs, 0 here means
	// sequential, not one-per-CPU: the search is usually nested inside
	// outer worker pools that already own the CPUs, so parallel search
	// must be an explicit choice.
	Parallelism int

	// MaxExplored caps the state evaluations one search may perform — the
	// deterministic analogue of a wall-clock decision deadline,
	// denominated in the paper's own §4.3 overhead metric so the trip
	// point is identical on every machine and every run. A search that
	// exhausts the budget aborts with ErrBudget; callers fall back to
	// safe settings for the tick and retry next period. 0 = unlimited.
	// A positive budget forces the sequential walk (Parallelism is
	// ignored): with parallel walkers the explored count at the trip
	// point would depend on scheduling, breaking reproducibility.
	MaxExplored int
}

func (o Options) penalty() float64 {
	if o.InfeasiblePenalty <= 0 {
		return 1e12
	}
	return o.InfeasiblePenalty
}

// Result is the outcome of a lookahead search.
type Result[S, U any] struct {
	// Inputs is the best input sequence found, one entry per horizon
	// step; Inputs[0] is the action to apply now.
	Inputs []U
	// States is the nominal predicted state trajectory, aligned with
	// Inputs (States[q] results from applying Inputs[q]).
	States []S
	// Cost is the expected cumulative cost of the best trajectory.
	Cost float64
	// Explored counts state evaluations performed during the search —
	// the paper's controller-overhead metric (§4.3). Branch-and-bound
	// pruning (Options.NonNegativeCosts) lowers it without changing the
	// decision.
	Explored int
	// Feasible reports whether the entire nominal trajectory satisfies
	// the hard constraints.
	Feasible bool
}

// ErrNoInputs is returned when the model offers no admissible inputs at
// some state the search must expand.
var ErrNoInputs = errors.New("llc: model returned no admissible inputs")

// ErrBudget is returned when a search exhausts Options.MaxExplored (or a
// controller its configured explored-state budget) before completing.
// Callers treat it as the decision deadline expiring: apply deterministic
// fallback settings for this tick and search again next tick.
var ErrBudget = errors.New("llc: decision budget exhausted")

// Exhaustive runs the full tree search of §4.1: every admissible input
// sequence over the horizon is evaluated (or provably pruned — see
// Options.NonNegativeCosts). envs[q] holds the environment samples for
// horizon step q; the horizon is len(envs) and must be ≥ 1. With |U|
// inputs the naive search evaluates Σ_{q=1..N} |U|^q states, so keep
// horizons short — the paper uses N ≤ 3 with ≤ 10 inputs.
func Exhaustive[S, U any](m Model[S, U], x0 S, envs []([]Env), opt Options) (Result[S, U], error) {
	sr, err := NewSearcher(m, opt)
	if err != nil {
		return Result[S, U]{}, err
	}
	return sr.Exhaustive(x0, envs)
}

func checkEnvs(envs []([]Env)) error {
	if len(envs) == 0 {
		return errors.New("llc: empty horizon")
	}
	for q, samples := range envs {
		if len(samples) == 0 {
			return fmt.Errorf("llc: horizon step %d has no environment samples", q)
		}
	}
	return nil
}

// nominal returns the sample that drives the state recursion at one
// horizon step: index ⌊len/2⌋ — the middle sample for odd counts, the
// upper of the two middle samples for even counts (pinned by tests; see
// the package doc).
func nominal(samples []Env) Env { return samples[len(samples)/2] }

// search carries the shared engine configuration for both strategies.
type search[S, U any] struct {
	m          Model[S, U]
	envs       []([]Env)
	opt        Options
	neighbours func(prev U, s S, level int) []U
	seed       U
}

// inputsAt returns the candidate inputs at one tree level: the bounded
// neighbourhood when one is installed, the model's full input set
// otherwise. A plain method (not a per-call closure) so reusing a
// Searcher allocates nothing.
func (s *search[S, U]) inputsAt(st S, level int, prev U) []U {
	if s.neighbours != nil {
		return s.neighbours(prev, st, level)
	}
	return s.m.Inputs(st)
}

// finish merges per-walker incumbents (and errors) in candidate order and
// assembles the Result exactly as the sequential walk would have.
func (s *search[S, U]) finish(walkers []*walker[S, U]) (Result[S, U], error) {
	var firstErr error
	errRoot := -1
	explored := 0
	var best *walker[S, U]
	for _, w := range walkers {
		explored += w.explored
		if w.err != nil && (errRoot < 0 || w.errRoot < errRoot) {
			firstErr, errRoot = w.err, w.errRoot
		}
		if !w.bestSet {
			continue
		}
		if best == nil || w.bestCost < best.bestCost ||
			(w.bestCost == best.bestCost && w.bestRoot < best.bestRoot) {
			best = w
		}
	}
	if firstErr != nil {
		return Result[S, U]{}, firstErr
	}
	if best == nil {
		return Result[S, U]{}, errors.New("llc: no finite-cost trajectory")
	}
	res := Result[S, U]{
		Inputs:   best.bestInputs,
		States:   best.bestStates,
		Cost:     best.bestCost,
		Explored: explored,
		Feasible: true,
	}
	for _, st := range res.States {
		if !s.m.Feasible(st) {
			res.Feasible = false
			break
		}
	}
	return res, nil
}

// frame is one level of the iterative DFS: the state it expands from and
// the candidate cursor.
type frame[S, U any] struct {
	x     S
	cands []U
	idx   int
}

// walker owns the preallocated buffers for one depth-first exploration of
// a subset of the level-0 candidates.
type walker[S, U any] struct {
	s  *search[S, U]
	x0 S

	roots  []U // all level-0 candidates (shared, read-only)
	first  int // first root index owned by this walker
	stride int // owned roots are first, first+stride, ...

	frames []frame[S, U] // per-level cursors, frames[0] unused for cands
	inputs []U           // current path: input chosen per level
	states []S           // current path: nominal successor per level
	stage  []float64     // current path: expected stage cost per level

	bestSet    bool
	bestCost   float64
	bestRoot   int // level-0 candidate index of the incumbent
	bestInputs []U
	bestStates []S

	explored int
	err      error
	errRoot  int // root index being explored when err was hit
}

// reset (re)arms the walker for one exploration: per-level buffers are
// reallocated only when the horizon changed, so a Searcher reusing its
// walkers performs no steady-state allocation.
func (w *walker[S, U]) reset(x0 S, roots []U, first, stride int) {
	if n := len(w.s.envs); len(w.frames) != n {
		w.frames = make([]frame[S, U], n)
		w.inputs = make([]U, n)
		w.states = make([]S, n)
		w.stage = make([]float64, n)
		w.bestInputs = make([]U, n)
		w.bestStates = make([]S, n)
	}
	w.x0 = x0
	w.roots = roots
	w.first = first
	w.stride = stride
	w.bestSet = false
	w.bestCost = math.Inf(1)
	w.bestRoot = 0
	w.explored = 0
	w.err = nil
	w.errRoot = 0
}

// load reads the shared bound as a float64.
func load(shared *atomic.Uint64) float64 { return math.Float64frombits(shared.Load()) }

// publish CAS-mins cost into the shared bound.
func publish(shared *atomic.Uint64, cost float64) {
	for {
		cur := shared.Load()
		if !(cost < math.Float64frombits(cur)) {
			return
		}
		if shared.CompareAndSwap(cur, math.Float64bits(cost)) {
			return
		}
	}
}

// run explores every owned root subtree depth-first. The expected stage
// cost of the node entered at each level is accumulated in stage[];
// trajectory costs are folded leaf-to-root (bound(), matching the original
// recursive engine's summation order exactly), and under the
// NonNegativeCosts contract the fold over the current prefix lower-bounds
// every completion, enabling incumbent pruning.
//
//hpm:hotpath
func (w *walker[S, U]) run(shared *atomic.Uint64) {
	s := w.s
	last := len(s.envs) - 1
	prune := s.opt.NonNegativeCosts
	penalty := s.opt.penalty()
	maxExplored := s.opt.MaxExplored
	for root := w.first; root < len(w.roots); root += w.stride {
		w.frames[0].x = w.x0
		lv := 0
		rootDone := false
		for !rootDone {
			f := &w.frames[lv]
			var u U
			if lv == 0 {
				// Level 0 holds exactly the single owned root; deeper
				// levels iterate their own candidate lists.
				u = w.roots[root]
			} else {
				if f.idx >= len(f.cands) {
					lv--
					if lv == 0 {
						rootDone = true
					}
					continue
				}
				u = f.cands[f.idx]
				f.idx++
			}

			// Expected stage cost over the uncertainty samples (§4.2):
			// each sample yields its own successor; the cost is their
			// average. The nominal sample drives the state recursion.
			samples := s.envs[lv]
			stage := 0.0
			for _, env := range samples {
				next := s.m.Step(f.x, u, env)
				w.explored++
				if maxExplored > 0 && w.explored > maxExplored {
					// Deterministic decision deadline: the budget is
					// denominated in explored states, so the trip point
					// is identical across runs and machines.
					w.err = ErrBudget
					w.errRoot = root
					return
				}
				c := s.m.Cost(next, u, env)
				if !s.m.Feasible(next) {
					c += penalty
				}
				stage += c
			}
			stage /= float64(len(samples))
			nominalNext := s.m.Step(f.x, u, nominal(samples))
			w.inputs[lv] = u
			w.states[lv] = nominalNext
			w.stage[lv] = stage

			b := w.bound(lv)
			if prune && (b >= w.bestCost || (shared != nil && b > load(shared))) {
				// Every completion costs at least b: it cannot strictly
				// beat the incumbent, and ties never displace it. The
				// strict > against the shared bound keeps equal-cost
				// trajectories from lower candidate indices alive so the
				// candidate-order merge stays bit-identical.
				if lv == 0 {
					rootDone = true
				}
				continue
			}
			if lv == last {
				// b is the exact leaf-to-root cost of the full path.
				if b < w.bestCost {
					w.bestSet = true
					w.bestCost = b
					w.bestRoot = root
					copy(w.bestInputs, w.inputs)
					copy(w.bestStates, w.states)
					if shared != nil {
						publish(shared, b)
					}
				}
				if lv == 0 {
					rootDone = true
				}
				continue
			}
			nf := &w.frames[lv+1]
			nf.x = nominalNext
			nf.cands = s.inputsAt(nominalNext, lv+1, u)
			nf.idx = 0
			if len(nf.cands) == 0 {
				w.err = fmt.Errorf("%w (level %d)", ErrNoInputs, lv+1)
				w.errRoot = root
				return
			}
			lv++
		}
	}
}

// bound folds stage[0..lv] leaf-to-root: at a leaf it is the exact
// trajectory cost in the same summation order the recursive engine used;
// at an interior level it lower-bounds every completion of the prefix
// under the NonNegativeCosts contract (appending non-negative suffix terms
// inside the fold can only round upward, never below the prefix fold).
//
//hpm:hotpath
func (w *walker[S, U]) bound(lv int) float64 {
	acc := w.stage[lv]
	for l := lv - 1; l >= 0; l-- {
		acc = w.stage[l] + acc
	}
	return acc
}
