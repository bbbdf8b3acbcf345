package llc

import "math"

// Weights are the user-defined weights Q, R, S of the norm-based operating
// cost of Eq. 3:
//
//	J(x, u) = ‖x − x*‖_Q + ‖u‖_R + ‖Δu‖_S
//
// Q prioritizes reaching the set-point, R the magnitude of the control
// input (e.g. power), and S the transient cost of changing inputs (e.g.
// switching a computer on). Any weight may be zero to drop its term.
type Weights struct {
	Q, R, S float64
}

// Cost evaluates Eq. 3 on scalar norms supplied by the caller: stateDev is
// ‖x − x*‖, inputMag is ‖u‖, and inputDelta is ‖Δu‖ = ‖u(k) − u(k−1)‖.
func (w Weights) Cost(stateDev, inputMag, inputDelta float64) float64 {
	return w.Q*math.Abs(stateDev) + w.R*math.Abs(inputMag) + w.S*math.Abs(inputDelta)
}

// Slack returns the soft-constraint slack variable of §4.1: zero while
// val ≤ limit and the violation magnitude otherwise. Penalizing the slack
// heavily in the cost gives the controller "a strong incentive to keep
// [it] at zero if possible" without making the optimization infeasible.
func Slack(val, limit float64) float64 {
	if val <= limit {
		return 0
	}
	return val - limit
}
