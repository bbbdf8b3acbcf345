// Package queue implements the fluid queueing model the paper's controllers
// use to predict computer behaviour (Eqs. 5–7 of §4.1):
//
//	q̂(k+1) = q(k) + (λ̂(k) − φ(k)/ĉ(k)) · T          (queue length)
//	r̂(k+1) = (1 + q̂(k+1)) · ĉ(k)/φ(k)               (response time)
//	ψ̂(k+1) = a + φ²(k)                               (power)
//
// where λ is the request arrival rate, ĉ the estimated processing time per
// request at full speed, and φ = u/u_max the frequency scaling factor.
// The model is deliberately simple — it is the controller's internal model,
// not the plant; the plant in internal/cluster is a request-level
// discrete-event simulation.
package queue

import (
	"fmt"
	"math"
)

// State is the modelled state of one computer's queue.
type State struct {
	// Q is the queue length in requests (fluid, may be fractional).
	Q float64
	// R is the predicted average response time in seconds for requests
	// arriving in the last step.
	R float64
}

// Params bundles the per-step model inputs.
type Params struct {
	// Lambda is the request arrival rate, requests/second.
	Lambda float64
	// C is the processing time per request at full speed, seconds.
	C float64
	// Phi is the frequency scaling factor u/u_max in (0, 1].
	Phi float64
	// T is the step length in seconds.
	T float64
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	if p.Lambda < 0 || math.IsNaN(p.Lambda) {
		return fmt.Errorf("queue: lambda %v < 0", p.Lambda)
	}
	if p.C <= 0 {
		return fmt.Errorf("queue: processing time %v <= 0", p.C)
	}
	if p.Phi <= 0 || p.Phi > 1 {
		return fmt.Errorf("queue: phi %v outside (0, 1]", p.Phi)
	}
	if p.T <= 0 {
		return fmt.Errorf("queue: step %v <= 0", p.T)
	}
	return nil
}

// Step advances the fluid model one step of length p.T from state s and
// returns the predicted next state. The queue length is clamped at zero
// (the fluid model otherwise goes negative when capacity exceeds arrivals).
func Step(s State, p Params) (State, error) {
	if err := p.Validate(); err != nil {
		return State{}, err
	}
	q := s.Q + (p.Lambda-p.Phi/p.C)*p.T
	if q < 0 {
		q = 0
	}
	r := (1 + q) * p.C / p.Phi
	return State{Q: q, R: r}, nil
}
