// Package llc implements the paper's primary contribution as a reusable
// framework: limited-lookahead control (LLC) of switching hybrid systems —
// systems with finite input sets and hybrid discrete/continuous dynamics
// for which classical feedback maps cannot be derived (§2.3).
//
// At every control step the framework constructs the tree of future states
// reachable from the current state over a prediction horizon N, evaluates
// the cumulative cost of each trajectory against forecast environment
// inputs, and returns the first input of the best trajectory (Eq. 4). The
// search, Searcher.Exhaustive, walks every admissible input sequence. The
// L0 controller uses it: its input set — processor frequencies — is small
// and its horizon several steps. (The L1 and L2 objectives
// separate by computer and module, so those controllers solve them
// exactly by min-plus programs of their own, and the centralized baseline
// owns its one-step loop over a bounded candidate set.)
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
// on what a partial trajectory can still cost against that incumbent:
//
//   - the accumulated cost of the prefix, which lower-bounds every
//     completion because the stages below it are non-negative;
//   - the completion bound, when the model also implements Floorer: the
//     prefix folded with the model's floors for the levels not yet
//     expanded, in the same leaf-to-root order as a leaf's exact cost;
//   - incumbent input sequences handed to Exhaustive, priced before the
//     walk with its own stage arithmetic and nudged one ulp up, so the
//     walk starts with a finite bound instead of walking its leftmost
//     path unpruned.
//
// A pruned trajectory could at best tie the incumbent, and ties never
// displace it, so the returned decision — inputs, states, cost — is
// bit-identical to the unpruned search while Result.Explored (the paper's
// §4.3 controller-overhead metric) shrinks. Explored counts every state
// evaluation the search pays for, floors and incumbent pricing included,
// and so does the decision budget. One search runs on one goroutine:
// Explored is a pure function of the model, the state, the forecasts and
// the incumbents, so it can be gated byte-exact. Work fans out between
// independent decisions (runs, tenants, sweep cells), never inside one.
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
	// meet the incumbent best — on the prefix alone, on the prefix with
	// a Floorer's floors below it, and against incumbent sequences given
	// to Exhaustive (ignored without this contract). The selected
	// trajectory, its cost and its feasibility are bit-identical to the
	// unpruned search — a pruned trajectory could at best tie, and ties
	// never displace the incumbent under the first-best-in-candidate-order
	// rule — but Result.Explored shrinks. Setting this with a model that
	// can return negative stage costs voids the equivalence guarantee.
	//
	// Error surfacing is best-effort under pruning: a subtree that
	// cannot improve the incumbent is skipped without calling
	// Model.Inputs on its states, so an ErrNoInputs that the naive search
	// would have hit deep inside such a subtree may not surface. The
	// bit-identical guarantee covers the returned decision; models should
	// not rely on the search to probe states that cannot win.
	NonNegativeCosts bool
}

// Floorer is an optional Model extension that arms the completion bound
// under Options.NonNegativeCosts. When the walk enters an interior node
// whose prefix alone does not meet the incumbent, it asks for the floors
// of the levels below the node and prunes the subtree if the prefix folded
// with them does.
//
// Floors writes into floors[i] a lower bound on the expected stage cost
// the walk computes at the i-th level below a node whose nominal successor
// is s, under every admissible input sequence; envs[i] holds that level's
// samples. The bound must hold in floating point: the walk's stage is the
// sum, in sample order from 0, of Cost (plus the infeasible penalty) over
// the samples, divided by their number, with the state recursion driven by
// the nominal sample. A floor above that value voids the equivalence
// guarantee. The search charges each floor level as many explored states
// as it has samples, the price of expanding one node there.
type Floorer[S any] interface {
	Floors(s S, envs []([]Env), floors []float64)
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
	// the paper's controller-overhead metric (§4.3): the nodes expanded,
	// the completion bound's floors and the incumbents' pricing.
	// Branch-and-bound pruning (Options.NonNegativeCosts) lowers it
	// without changing the decision.
	Explored int
	// Feasible reports whether the entire nominal trajectory satisfies
	// the hard constraints.
	Feasible bool
}

// ErrNoInputs is returned when the model offers no admissible inputs at
// some state the search must expand.
var ErrNoInputs = errors.New("llc: model returned no admissible inputs")

// ErrBudget is returned when a search exhausts its decision budget (see
// Searcher.SetMaxExplored) before completing.
// Callers treat it as the decision deadline expiring: apply deterministic
// fallback settings for this tick and search again next tick.
var ErrBudget = errors.New("llc: decision budget exhausted")

// Exhaustive runs the full tree search of §4.1: every admissible input
// sequence over the horizon is evaluated (or provably pruned — see
// Options.NonNegativeCosts). envs[q] holds the environment samples for
// horizon step q; the horizon is len(envs) and must be ≥ 1. With |U|
// inputs the naive search evaluates Σ_{q=1..N} |U|^q states, so keep
// horizons short — the paper uses N ≤ 3 with ≤ 10 inputs.
//
// Each incumbent is an input sequence of the horizon's length that the
// tree holds — every entry admissible in the state its predecessors lead
// to along the nominal trajectory. Under Options.NonNegativeCosts the
// cheapest of them bounds the walk from the start; the decision is the
// same with or without them, and an incumbent the tree does not hold
// voids that guarantee.
func Exhaustive[S, U any](m Model[S, U], x0 S, envs []([]Env), opt Options, incumbents ...[]U) (Result[S, U], error) {
	sr, err := NewSearcher(m, opt)
	if err != nil {
		return Result[S, U]{}, err
	}
	return sr.Exhaustive(x0, envs, incumbents...)
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
// per-level buffers are reallocated only when the horizon outgrew them, so
// a reused Searcher performs no steady-state allocation, whatever mix of
// horizons it walks.
func (sr *Searcher[S, U]) reset(x0 S, roots []U) {
	n := len(sr.envs)
	if cap(sr.frames) < n {
		sr.frames = make([]frame[S, U], n)
		sr.inputs = make([]U, n)
		sr.states = make([]S, n)
		sr.stage = make([]float64, n)
		sr.bestInputs = make([]U, n)
		sr.bestStates = make([]S, n)
	}
	sr.frames, sr.inputs, sr.states = sr.frames[:n], sr.inputs[:n], sr.states[:n]
	sr.stage, sr.bestInputs, sr.bestStates = sr.stage[:n], sr.bestInputs[:n], sr.bestStates[:n]
	sr.frames[0] = frame[S, U]{x: x0, cands: roots}
	sr.bestSet = false
	sr.bestCost = math.Inf(1)
	sr.explored = 0
	sr.err = nil
}

// count charges n state evaluations to explored and reports false, with
// sr.err set, once they exceed the decision budget. The budget is
// denominated in explored states, so the trip point is identical across
// runs and machines.
//
//hpm:hotpath
func (sr *Searcher[S, U]) count(n int) bool {
	sr.explored += n
	if sr.maxExplored > 0 && sr.explored > sr.maxExplored {
		sr.err = ErrBudget
		return false
	}
	return true
}

// expand evaluates the node reached by applying u in x at level lv: its
// expected stage cost over the level's uncertainty samples (§4.2) — each
// sample yields its own successor, the cost is their average — and the
// nominal sample's successor, which drives the state recursion. It is the
// one place stage costs are computed, for the walk and for incumbents
// alike; false means the budget ran out.
//
//hpm:hotpath
func (sr *Searcher[S, U]) expand(x S, u U, lv int) (stage float64, next S, ok bool) {
	samples := sr.envs[lv]
	nominal := len(samples) / 2 // see the package doc
	for i, env := range samples {
		succ := sr.m.Step(x, u, env)
		if !sr.count(1) {
			return 0, next, false
		}
		c := sr.m.Cost(succ, u, env)
		if !sr.m.Feasible(succ) {
			c += infeasiblePenalty
		}
		stage += c
		if i == nominal {
			next = succ
		}
	}
	return stage / float64(len(samples)), next, true
}

// seed prices one incumbent input sequence down its nominal trajectory with
// expand and bound, exactly as the walk will price it, and arms bestCost
// with that cost nudged one ulp up when it undercuts the bound so far. The
// walk prunes on >=, so the nudge keeps every trajectory that ties the
// incumbent — the incumbent itself included — reachable; bestSet stays
// false, and the walk records the first-best trajectory in candidate order
// as it would have unseeded. Pricing stops early once the prefix alone
// meets the bound. False means the budget ran out.
func (sr *Searcher[S, U]) seed(x0 S, seq []U) bool {
	x := x0
	for lv, u := range seq {
		stage, next, ok := sr.expand(x, u, lv)
		if !ok {
			return false
		}
		sr.stage[lv] = stage
		if sr.bound(lv) >= sr.bestCost {
			return true
		}
		x = next
	}
	if c := math.Nextafter(sr.bound(len(seq)-1), math.Inf(1)); c < sr.bestCost {
		sr.bestCost = c
	}
	return true
}

// walk explores the tree depth-first in candidate order. The expected stage
// cost of the node entered at each level is accumulated in stage[];
// trajectory costs are folded leaf-to-root (bound(), matching the original
// recursive engine's summation order exactly). Under the NonNegativeCosts
// contract the fold over the current prefix lower-bounds every completion,
// and so does the fold of the prefix with a Floorer's floors in the
// levels below it; either meeting the incumbent prunes the subtree.
//
//hpm:hotpath
func (sr *Searcher[S, U]) walk() {
	last := len(sr.envs) - 1
	prune := sr.opt.NonNegativeCosts
	for lv := 0; lv >= 0; {
		f := &sr.frames[lv]
		if f.idx >= len(f.cands) {
			lv--
			continue
		}
		u := f.cands[f.idx]
		f.idx++

		stage, next, ok := sr.expand(f.x, u, lv)
		if !ok {
			return
		}
		sr.inputs[lv] = u
		sr.states[lv] = next
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
		if sr.floorer != nil && sr.bestCost < math.Inf(1) {
			// Completion bound: the floors stand in for the stages
			// below lv until the walk enters those levels and
			// overwrites them, so stage[0..lv] stays the exact path.
			below := sr.envs[lv+1:]
			sr.floorer.Floors(next, below, sr.stage[lv+1:])
			n := 0
			for _, samples := range below {
				n += len(samples)
			}
			if !sr.count(n) {
				return
			}
			if sr.bound(last) >= sr.bestCost {
				continue
			}
		}
		nf := &sr.frames[lv+1]
		nf.x = next
		nf.cands = sr.m.Inputs(next)
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
// Floating-point addition is monotone in each operand, so a fold whose
// terms below lv are floors no larger than the stages they stand for
// lower-bounds those completions too.
//
//hpm:hotpath
func (sr *Searcher[S, U]) bound(lv int) float64 {
	acc := sr.stage[lv]
	for l := lv - 1; l >= 0; l-- {
		acc = sr.stage[l] + acc
	}
	return acc
}
