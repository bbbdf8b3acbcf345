// Package llc implements the paper's primary contribution as a reusable
// framework: limited-lookahead control (LLC) of switching hybrid systems —
// systems with finite input sets and hybrid discrete/continuous dynamics
// for which classical feedback maps cannot be derived (§2.3).
//
// At every control step the framework constructs the tree of future states
// reachable from the current state over a prediction horizon N, evaluates
// the cumulative cost of each trajectory against forecast environment
// inputs, and returns the first input of the best trajectory (Eq. 4). Two
// searches are provided, one per shape of the paper's levels (§3-4):
//
//   - Searcher.Exhaustive: the tree search over every admissible input
//     sequence, used by the L0 controller, whose input set — processor
//     frequencies — is small and whose horizon is several steps.
//   - OneStep: the flat one-step loop over a caller-built candidate set
//     (a bounded neighbourhood of the previous decision), used by the L1
//     and L2 controllers and the centralized baseline, whose input spaces
//     are combinatorial. It owns the explored count, the budget, the
//     partial-mean pruning and the first-strictly-better rule for all
//     three.
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
// The tree search runs on a branch-and-bound engine: an iterative
// depth-first walk over preallocated per-level buffers (no recursion, no
// per-node allocation) that keeps the best trajectory found so far as an
// incumbent. Under the Options.NonNegativeCosts contract the engine prunes
// any partial trajectory whose accumulated cost already matches or exceeds
// the incumbent — such a trajectory can only tie, and ties never displace
// the incumbent, so the returned decision is bit-identical to the
// unpruned search while Result.Explored (the paper's §4.3
// controller-overhead metric) shrinks. One search runs on one goroutine:
// Explored is a pure function of the model, the state and the forecasts,
// so it can be gated byte-exact. Work fans out between independent
// decisions (runs, tenants, sweep cells), never inside one.
package llc

import (
	"errors"
	"fmt"
	"math"
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
// may evaluate them in any order.
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
// reproduces the naive engine: no pruning.
//
// One deliberate difference from the historical recursive engine at any
// setting: a subtree none of whose completions has a finite, comparable
// cost (every trajectory +Inf or NaN) no longer aborts the whole search —
// the engine keeps the best trajectory from the remaining candidates and
// errors only when no trajectory anywhere has finite cost. The old
// behavior turned one degenerate branch into a controller-wide failure
// even when other branches held perfectly good decisions.
type Options struct {
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
	// Model.Inputs on its states, so an ErrNoInputs that the naive search
	// would have hit deep inside such a subtree may not surface. The
	// bit-identical guarantee covers the returned decision; models should
	// not rely on the search to probe states that cannot win.
	NonNegativeCosts bool
}

// infeasiblePenalty is added to the stage cost of states failing
// Model.Feasible. It must dwarf any legitimate cost so feasible
// trajectories always win when they exist, while the search still returns
// a least-bad action under unavoidable infeasibility.
const infeasiblePenalty = 1e12

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

// ErrBudget is returned when a search exhausts its decision budget (see
// Searcher.SetMaxExplored and Scan.MaxExplored) before completing.
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

// finish assembles the Result from the walk's incumbent.
func (sr *Searcher[S, U]) finish() (Result[S, U], error) {
	if sr.err != nil {
		return Result[S, U]{}, sr.err
	}
	if !sr.bestSet {
		return Result[S, U]{}, errors.New("llc: no finite-cost trajectory")
	}
	res := Result[S, U]{
		Inputs:   sr.bestInputs,
		States:   sr.bestStates,
		Cost:     sr.bestCost,
		Explored: sr.explored,
		Feasible: true,
	}
	for _, st := range res.States {
		if !sr.m.Feasible(st) {
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

// reset (re)arms the Searcher for one exploration of roots from x0:
// per-level buffers are reallocated only when the horizon changed, so a
// reused Searcher performs no steady-state allocation.
func (sr *Searcher[S, U]) reset(x0 S, roots []U) {
	if n := len(sr.envs); len(sr.frames) != n {
		sr.frames = make([]frame[S, U], n)
		sr.inputs = make([]U, n)
		sr.states = make([]S, n)
		sr.stage = make([]float64, n)
		sr.bestInputs = make([]U, n)
		sr.bestStates = make([]S, n)
	}
	sr.frames[0] = frame[S, U]{x: x0, cands: roots}
	sr.bestSet = false
	sr.bestCost = math.Inf(1)
	sr.explored = 0
	sr.err = nil
}

// walk explores the tree depth-first in candidate order. The expected stage
// cost of the node entered at each level is accumulated in stage[];
// trajectory costs are folded leaf-to-root (bound(), matching the original
// recursive engine's summation order exactly), and under the
// NonNegativeCosts contract the fold over the current prefix lower-bounds
// every completion, enabling incumbent pruning.
//
//hpm:hotpath
func (sr *Searcher[S, U]) walk() {
	last := len(sr.envs) - 1
	prune := sr.opt.NonNegativeCosts
	maxExplored := sr.maxExplored
	for lv := 0; lv >= 0; {
		f := &sr.frames[lv]
		if f.idx >= len(f.cands) {
			lv--
			continue
		}
		u := f.cands[f.idx]
		f.idx++

		// Expected stage cost over the uncertainty samples (§4.2):
		// each sample yields its own successor; the cost is their
		// average. The nominal sample drives the state recursion.
		samples := sr.envs[lv]
		stage := 0.0
		for _, env := range samples {
			next := sr.m.Step(f.x, u, env)
			sr.explored++
			if maxExplored > 0 && sr.explored > maxExplored {
				// Deterministic decision deadline: the budget is
				// denominated in explored states, so the trip point
				// is identical across runs and machines.
				sr.err = ErrBudget
				return
			}
			c := sr.m.Cost(next, u, env)
			if !sr.m.Feasible(next) {
				c += infeasiblePenalty
			}
			stage += c
		}
		stage /= float64(len(samples))
		nominalNext := sr.m.Step(f.x, u, nominal(samples))
		sr.inputs[lv] = u
		sr.states[lv] = nominalNext
		sr.stage[lv] = stage

		b := sr.bound(lv)
		if prune && b >= sr.bestCost {
			// Every completion costs at least b: it cannot strictly
			// beat the incumbent, and ties never displace it.
			continue
		}
		if lv == last {
			// b is the exact leaf-to-root cost of the full path.
			if b < sr.bestCost {
				sr.bestSet = true
				sr.bestCost = b
				copy(sr.bestInputs, sr.inputs)
				copy(sr.bestStates, sr.states)
			}
			continue
		}
		nf := &sr.frames[lv+1]
		nf.x = nominalNext
		nf.cands = sr.m.Inputs(nominalNext)
		nf.idx = 0
		if len(nf.cands) == 0 {
			sr.err = fmt.Errorf("%w (level %d)", ErrNoInputs, lv+1)
			return
		}
		lv++
	}
}

// bound folds stage[0..lv] leaf-to-root: at a leaf it is the exact
// trajectory cost in the same summation order the recursive engine used;
// at an interior level it lower-bounds every completion of the prefix
// under the NonNegativeCosts contract (appending non-negative suffix terms
// inside the fold can only round upward, never below the prefix fold).
//
//hpm:hotpath
func (sr *Searcher[S, U]) bound(lv int) float64 {
	acc := sr.stage[lv]
	for l := lv - 1; l >= 0; l-- {
		acc = sr.stage[l] + acc
	}
	return acc
}
