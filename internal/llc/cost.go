package llc

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
