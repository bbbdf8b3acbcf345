package llc

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"hierctl/internal/par"
)

// Searcher is a reusable lookahead engine: it owns the walkers and their
// per-level buffers, so driving many receding-horizon decisions through
// one Searcher performs no steady-state allocation (the buffers are
// reallocated only when the horizon length changes). The one-shot
// Exhaustive package function constructs a fresh Searcher per call;
// controllers that decide every period hold one instead, as the L0
// controller does.
//
// A Searcher is NOT safe for concurrent use: its buffers are shared
// across calls (Options.Parallelism > 1 still fans one call's level-0
// candidates across goroutines internally). Result.Inputs and
// Result.States returned by a Searcher alias those reused buffers and are
// valid only until the next call on the same Searcher; copy them if
// retained. Construct with NewSearcher.
type Searcher[S, U any] struct {
	s    search[S, U]
	seq  *walker[S, U]   // sequential walker, reused across calls
	pool []*walker[S, U] // parallel walkers, reused across calls
	one  [1]*walker[S, U]
}

// NewSearcher returns a reusable engine over the model with fixed search
// options.
func NewSearcher[S, U any](m Model[S, U], opt Options) (*Searcher[S, U], error) {
	if m == nil {
		return nil, errors.New("llc: nil model")
	}
	sr := &Searcher[S, U]{}
	sr.s = search[S, U]{m: m, opt: opt}
	return sr, nil
}

// SetMaxExplored replaces the decision budget for subsequent searches
// (see Options.MaxExplored); n <= 0 removes it. It lets a runtime chaos
// plan squeeze the budget of an already-constructed controller.
func (sr *Searcher[S, U]) SetMaxExplored(n int) {
	if n < 0 {
		n = 0
	}
	sr.s.opt.MaxExplored = n
}

// Exhaustive runs the full tree search of §4.1 from x0 (see the package
// function of the same name for semantics).
func (sr *Searcher[S, U]) Exhaustive(x0 S, envs []([]Env)) (Result[S, U], error) {
	if err := checkEnvs(envs); err != nil {
		return Result[S, U]{}, err
	}
	sr.s.envs = envs
	sr.s.neighbours = nil
	var zero U
	sr.s.seed = zero
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
	sr.s.envs = envs
	sr.s.neighbours = neighbours
	sr.s.seed = prev
	return sr.run(x0)
}

// run fans the level-0 candidates across the reused walkers and merges
// their results in candidate order.
//
//hpm:hotpath
func (sr *Searcher[S, U]) run(x0 S) (Result[S, U], error) {
	s := &sr.s
	roots := s.inputsAt(x0, 0, s.seed)
	if len(roots) == 0 {
		return Result[S, U]{}, fmt.Errorf("%w (level 0)", ErrNoInputs)
	}
	workers := s.opt.Parallelism
	if workers > len(roots) {
		workers = len(roots)
	}
	if s.opt.MaxExplored > 0 {
		// A decision budget demands a deterministic trip point; parallel
		// walkers would make the explored count at the trip depend on
		// scheduling (see Options.MaxExplored).
		workers = 1
	}
	if workers <= 1 {
		if sr.seq == nil {
			sr.seq = &walker[S, U]{s: s} //hpm:alloc one-time sequential-walker warm-up; reused across decisions
		}
		sr.seq.reset(x0, roots, 0, 1)
		sr.seq.run(nil)
		sr.one[0] = sr.seq
		return s.finish(sr.one[:])
	}

	// Shared incumbent bound: float64 bits in an atomic. Non-negative
	// IEEE floats order identically to their bit patterns, and the bound
	// only ever holds +Inf or a published trajectory cost, so a simple
	// CAS-min over bits implements min-of-floats.
	var shared atomic.Uint64
	shared.Store(math.Float64bits(math.Inf(1)))
	var sharedPtr *atomic.Uint64
	if s.opt.NonNegativeCosts {
		sharedPtr = &shared
	}
	for len(sr.pool) < workers {
		sr.pool = append(sr.pool, &walker[S, U]{s: s}) //hpm:alloc pool warm-up to the configured parallelism; reused across decisions
	}
	walkers := sr.pool[:workers]
	// Static stride partition: worker w owns roots w, w+W, w+2W, ... so
	// each walker sees strictly increasing candidate indices and the
	// merge can restore the sequential first-best-in-order rule.
	_ = par.For(workers, workers, func(w int) error { //hpm:alloc fan-out closure; the parallel path trades a per-call alloc for wall-clock
		walkers[w].reset(x0, roots, w, workers)
		walkers[w].run(sharedPtr)
		return nil
	})
	return s.finish(walkers)
}
