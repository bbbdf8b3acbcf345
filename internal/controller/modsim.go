package controller

import (
	"fmt"

	"hierctl/internal/approx"
	"hierctl/internal/llc"
	"hierctl/internal/queue"
)

// ModuleSimConfig parameterizes the simulation-based learning of a
// module's cost approximation J̃ (§5.1): "the behavior of module M_i is
// learned by simulating the control structure in Fig. 2(b) with a large
// number of training inputs".
type ModuleSimConfig struct {
	// QLevels, LambdaLevels and CLevels are the training grids over the
	// module's average queue length, offered arrival rate
	// (requests/second), and processing time (seconds).
	QLevels, LambdaLevels, CLevels []float64
	// Tree bounds the fitted regression tree.
	Tree approx.TreeConfig
}

// DefaultModuleSimConfig returns a training grid sized for the paper's
// cluster experiments (module loads up to several hundred req/s).
func DefaultModuleSimConfig() ModuleSimConfig {
	return ModuleSimConfig{
		QLevels:      []float64{0, 20, 40, 80, 160, 320},
		LambdaLevels: []float64{0, 10, 25, 50, 75, 100, 150, 200, 250, 300, 400},
		CLevels:      []float64{0.012, 0.0175, 0.023},
		Tree:         approx.TreeConfig{MaxDepth: 10, MinLeaf: 2},
	}
}

// Validate reports whether the configuration is usable.
func (c ModuleSimConfig) Validate() error {
	if len(c.QLevels) == 0 || len(c.LambdaLevels) == 0 || len(c.CLevels) == 0 {
		return fmt.Errorf("controller: module sim grid has empty dimension")
	}
	return nil
}

// newModuleSim returns a simulation of the closed L1+L0 loop of one module
// on the fluid model for one L1 period: the L1 picks (α, γ) for the offered
// load, then each on computer's L0 controller runs SubSteps periods. A call
// returns the total cost accumulated (response slack + power + switching),
// normalized per L0 step, and the resulting average queue length.
//
// The module starts with qAvg queued requests per computer, all computers
// on, so the sampled cost reflects the module's intrinsic response to
// (q, λ, c) rather than a particular control history. The controllers are
// built once for every training point: neither keeps a decision, so every
// run starts from the same all-on module. The L0s run their search.
func newModuleSim(l0cfg L0Config, l1cfg L1Config, gmaps []*GMap) (func(qAvg, lambda, c float64) (float64, float64, error), error) {
	l1, err := NewL1(l1cfg, gmaps)
	if err != nil {
		return nil, err
	}
	m := len(gmaps)
	l0s := make([]*L0, m)
	for j := range l0s {
		if l0s[j], err = NewL0(l0cfg, gmaps[j].Spec()); err != nil {
			return nil, err
		}
	}
	queues, states := make([]float64, m), make([]queue.State, m)
	var lam [1]float64
	subSteps := max(int(l1cfg.PeriodSeconds/PeriodL0), 1)
	return func(qAvg, lambda, c float64) (float64, float64, error) {
		for j := range queues {
			queues[j] = qAvg
		}
		dec, err := l1.Decide(L1Observation{QueueLens: queues, LambdaHat: lambda, CHat: c})
		if err != nil {
			return 0, 0, err
		}
		for j := range states {
			// Off computers contribute no running cost; queued work is
			// redistributed by the dispatcher in the real plant, modelled
			// here by dropping it from the fluid state.
			states[j] = queue.State{}
			if dec.Alpha[j] {
				states[j].Q = qAvg
			}
		}
		total := 0.0
		for step := 0; step < subSteps; step++ {
			for j, g := range gmaps {
				if !dec.Alpha[j] {
					continue
				}
				spec := g.Spec()
				lam[0] = dec.Gamma[j] * lambda
				res, err := l0s[j].search(states[j].Q, lam[:], 0, c)
				if err != nil {
					return 0, 0, fmt.Errorf("controller: L0 search: %w", err)
				}
				phi := spec.Phi(res.Inputs[0])
				next, err := queue.Step(states[j], queue.Params{
					Lambda: lam[0],
					C:      c / spec.SpeedFactor,
					Phi:    phi,
					T:      PeriodL0,
				})
				if err != nil {
					return 0, 0, err
				}
				total += SlackWeight*llc.Slack(next.R, EffectiveTarget) + PowerWeight*spec.Power.Draw(phi, true)
				states[j] = next
			}
		}
		qEnd := 0.0
		for _, st := range states {
			qEnd += st.Q
		}
		return total / float64(subSteps), qEnd / float64(m), nil
	}, nil
}

// LearnModuleTree performs the full §5.1 pipeline for one module: sweep
// the training grid, simulate the closed-loop module at every point to
// build the lookup table, and fit the compact regression tree over
// features (qAvg, λ, c).
func LearnModuleTree(l0cfg L0Config, l1cfg L1Config, gmaps []*GMap, cfg ModuleSimConfig) (*TreeJTilde, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim, err := newModuleSim(l0cfg, l1cfg, gmaps)
	if err != nil {
		return nil, err
	}
	levels := [][]float64{cfg.QLevels, cfg.LambdaLevels, cfg.CLevels}
	samples, err := approx.Learn(levels, func(p []float64) (float64, error) {
		cost, _, err := sim(p[0], p[1], p[2])
		return cost, err
	})
	if err != nil {
		return nil, err
	}
	tree, err := approx.FitTree(samples, cfg.Tree)
	if err != nil {
		return nil, err
	}
	return NewTreeJTilde(tree)
}
