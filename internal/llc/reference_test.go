package llc

import (
	"fmt"
	"math"
)

// This file preserves the original recursive, unpruned search engine as a
// test oracle: the branch-and-bound engine must reproduce its decisions
// bit-for-bit (inputs, states, cost, feasibility) and, when pruning is
// off, its exact Explored count and evaluation order. Beside it sits the
// naive one-step loop, the oracle OneStep must reproduce the same way.

type refSearch[S, U any] struct {
	m        Model[S, U]
	envs     []([]Env)
	explored int
}

func referenceExhaustive[S, U any](m Model[S, U], x0 S, envs []([]Env), _ Options) (Result[S, U], error) {
	if err := checkEnvs(envs); err != nil {
		return Result[S, U]{}, err
	}
	s := &refSearch[S, U]{m: m, envs: envs}
	best, err := s.expand(x0, 0)
	if err != nil {
		return Result[S, U]{}, err
	}
	best.Explored = s.explored
	refReverse(best.Inputs)
	refReverse(best.States)
	best.Feasible = true
	for _, st := range best.States {
		if !s.m.Feasible(st) {
			best.Feasible = false
			break
		}
	}
	return best, nil
}

func (s *refSearch[S, U]) expand(x S, level int) (Result[S, U], error) {
	samples := s.envs[level]
	nominal := samples[len(samples)/2]
	candidates := s.m.Inputs(x)
	if len(candidates) == 0 {
		return Result[S, U]{}, fmt.Errorf("%w (level %d)", ErrNoInputs, level)
	}
	best := Result[S, U]{Cost: math.Inf(1)}
	found := false
	for _, u := range candidates {
		stage := 0.0
		for _, env := range samples {
			next := s.m.Step(x, u, env)
			s.explored++
			c := s.m.Cost(next, u, env)
			if !s.m.Feasible(next) {
				c += infeasiblePenalty
			}
			stage += c
		}
		stage /= float64(len(samples))

		nominalNext := s.m.Step(x, u, nominal)
		total := stage
		var suffix Result[S, U]
		if level+1 < len(s.envs) {
			var err error
			suffix, err = s.expand(nominalNext, level+1)
			if err != nil {
				return Result[S, U]{}, err
			}
			total += suffix.Cost
		}
		if total < best.Cost {
			best.Cost = total
			best.Inputs = append(suffix.Inputs, u)
			best.States = append(suffix.States, nominalNext)
			found = true
		}
	}
	if !found {
		return Result[S, U]{}, fmt.Errorf("llc: no finite-cost trajectory at level %d", level)
	}
	return best, nil
}

func refReverse[T any](xs []T) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// referenceOneStep is the naive one-step loop: every candidate priced over
// every sample with a plain sum += price loop, the mean passed through
// finish, and the first candidate strictly cheaper than the incumbent
// kept — no pruning, no budget. It returns the winner (−1 when none beat
// the incumbent), its cost and the candidate-samples priced.
func referenceOneStep[C any](cands []C, n int, incumbent float64, price func(c C, si int) float64, finish func(c C, mean float64) float64) (int, float64, int) {
	best, cost, explored := -1, incumbent, 0
	for ci, c := range cands {
		sum := 0.0
		for si := 0; si < n; si++ {
			sum += price(c, si)
			explored++
		}
		if f := finish(c, sum/float64(n)); f < cost {
			best, cost = ci, f
		}
	}
	return best, cost, explored
}
