package llc

import (
	"errors"
	"fmt"
)

// Searcher is a reusable lookahead engine: it owns the depth-first walk's
// per-level buffers, so driving many receding-horizon decisions through
// one Searcher performs no steady-state allocation (the buffers are
// reallocated only when the horizon length changes). The one-shot
// Exhaustive package function constructs a fresh Searcher per call;
// controllers that decide every period hold one instead, as the L0
// controller does.
//
// A Searcher is NOT safe for concurrent use: its buffers are shared
// across calls. Result.Inputs and Result.States returned by a Searcher
// alias those reused buffers and are valid only until the next call on the
// same Searcher; copy them if retained. Construct with NewSearcher.
type Searcher[S, U any] struct {
	m          Model[S, U]
	opt        Options
	envs       []([]Env)
	neighbours func(prev U, s S, level int) []U // nil: the model's full input set
	seed       U
	// maxExplored is the decision budget (see SetMaxExplored); 0 = none.
	maxExplored int

	frames []frame[S, U] // per-level cursors; frames[0] holds the roots
	inputs []U           // current path: input chosen per level
	states []S           // current path: nominal successor per level
	stage  []float64     // current path: expected stage cost per level

	bestSet    bool
	bestCost   float64
	bestInputs []U
	bestStates []S

	explored int
	err      error
}

// NewSearcher returns a reusable engine over the model with fixed search
// options.
func NewSearcher[S, U any](m Model[S, U], opt Options) (*Searcher[S, U], error) {
	if m == nil {
		return nil, errors.New("llc: nil model")
	}
	return &Searcher[S, U]{m: m, opt: opt}, nil
}

// SetMaxExplored caps the state evaluations each subsequent search may
// perform; n <= 0 (the initial state) removes the cap. The budget is the
// deterministic analogue of a wall-clock decision deadline, denominated in
// the paper's own §4.3 overhead metric so the trip point is identical on
// every machine and every run: a search that exhausts it aborts with
// ErrBudget, and callers fall back to safe settings for the tick and search
// again next period. It is the budget's one way in — a chaos plan's
// DecisionBudget arrives here through the controllers' SetMaxExplored.
func (sr *Searcher[S, U]) SetMaxExplored(n int) { sr.maxExplored = n }

// Exhaustive runs the full tree search of §4.1 from x0 (see the package
// function of the same name for semantics).
func (sr *Searcher[S, U]) Exhaustive(x0 S, envs []([]Env)) (Result[S, U], error) {
	if err := checkEnvs(envs); err != nil {
		return Result[S, U]{}, err
	}
	sr.envs = envs
	sr.neighbours = nil
	var zero U
	sr.seed = zero
	return sr.run(x0)
}

// Bounded runs the bounded neighbourhood search of §4.2 from x0: at each
// tree level the candidate inputs are neighbours(prev, state, level) —
// typically a small perturbation set around the previous decision, since
// environment parameters rarely change drastically within one sampling
// period. prev seeds the neighbourhood at level 0.
func (sr *Searcher[S, U]) Bounded(x0 S, prev U, neighbours func(prev U, s S, level int) []U, envs []([]Env)) (Result[S, U], error) {
	if err := checkEnvs(envs); err != nil {
		return Result[S, U]{}, err
	}
	if neighbours == nil {
		return Result[S, U]{}, errors.New("llc: nil neighbourhood function")
	}
	sr.envs = envs
	sr.neighbours = neighbours
	sr.seed = prev
	return sr.run(x0)
}

// run walks the tree under the level-0 candidates in the reused buffers.
//
//hpm:hotpath
func (sr *Searcher[S, U]) run(x0 S) (Result[S, U], error) {
	roots := sr.inputsAt(x0, 0, sr.seed)
	if len(roots) == 0 {
		return Result[S, U]{}, fmt.Errorf("%w (level 0)", ErrNoInputs)
	}
	sr.reset(x0, roots)
	sr.walk()
	return sr.finish()
}
